package sim

import (
	"fmt"
	"testing"

	"skipit/internal/core"
	"skipit/internal/l1"
	"skipit/internal/l2"
	"skipit/internal/mem"
	"skipit/internal/tilelink"
)

// TestConstructorsRejectForeignLineSize: every component carries lines as
// tilelink.Line values, so a configured line size other than 64 B panics at
// construction instead of silently truncating or zero-padding lines.
func TestConstructorsRejectForeignLineSize(t *testing.T) {
	port := func() *tilelink.ClientPort { return tilelink.NewClientPort("t", 16, 64, 1) }
	cases := []struct {
		name  string
		build func(lineBytes uint64)
	}{
		{"tilelink.NewLink", func(lb uint64) { tilelink.NewLink("t", 16, lb, 1) }},
		{"mem.New", func(lb uint64) {
			cfg := mem.DefaultConfig()
			cfg.LineBytes = lb
			mem.New(cfg)
		}},
		{"l2.New", func(lb uint64) {
			cfg := l2.DefaultConfig(1)
			cfg.LineBytes = lb
			l2.New(cfg, []*tilelink.ClientPort{port()}, mem.New(mem.DefaultConfig()))
		}},
		{"l1.New", func(lb uint64) {
			cfg := l1.DefaultConfig(0)
			cfg.LineBytes = lb
			l1.New(cfg, port())
		}},
		{"core.NewFlushUnit", func(lb uint64) {
			cfg := core.DefaultConfig()
			cfg.LineBytes = lb
			core.NewFlushUnit(cfg, nil)
		}},
	}
	for _, c := range cases {
		for _, lb := range []uint64{0, 32, 128} {
			t.Run(fmt.Sprintf("%s/%d", c.name, lb), func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s accepted a %d-byte line", c.name, lb)
					}
				}()
				c.build(lb)
			})
		}
		c.build(tilelink.LineBytes) // the supported size builds
	}
}
