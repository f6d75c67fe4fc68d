package chaos

import (
	"testing"

	"skipit/internal/boom"
	"skipit/internal/isa"
)

// TestDurabilityRule holds durabilityViolation to the Fig. 5(c) rule on
// hand-built programs: every instruction completed before the crash except
// those listed as pending, and NVMM holds nvmm at 0x1000 and 0 elsewhere.
func TestDurabilityRule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		prog    string
		pending []int
		nvmm    uint64
		ok      bool
	}{
		{"covered store durable", "sd 0x1000 5\ncbo.clean 0x1000\nfence", nil, 5, true},
		{"covered store lost", "sd 0x1000 5\ncbo.clean 0x1000\nfence", nil, 0, false},
		{"CBO on another word of the line covers it", "sd 0x1000 5\ncbo.flush 0x1038\nfence", nil, 0, false},
		{"CBO without a completed fence", "sd 0x1000 5\ncbo.flush 0x1000\nfence", []int{2}, 0, true},
		{"CBO not completed", "sd 0x1000 5\ncbo.flush 0x1000\nfence", []int{1}, 0, true},
		{"store after the CBO not covered", "cbo.clean 0x1000\nsd 0x1000 5\nfence", nil, 0, true},
		{"older of two covered stores rejected", "sd 0x1000 5\nsd 0x1000 6\ncbo.clean 0x1000\nfence", nil, 5, false},
		{"newer of two covered stores durable", "sd 0x1000 5\nsd 0x1000 6\ncbo.clean 0x1000\nfence", nil, 6, true},
		{"later write may persist", "sd 0x1000 5\ncbo.clean 0x1000\nfence\nsd 0x1000 6", []int{3}, 6, true},
		{"uncovered word holds a value never written", "sd 0x1000 5", nil, 9, false},
		{"covered amoswap lost", "amoswap 0x1000 7\ncbo.clean 0x1000\nfence", nil, 0, false},
		{"covered amoadd holds the old value", "sd 0x1000 3\namoadd 0x1000 4\ncbo.flush 0x1000\nfence", nil, 3, false},
		{"covered amoadd durable", "sd 0x1000 3\namoadd 0x1000 4\ncbo.flush 0x1000\nfence", nil, 7, true},
		{"cflush.d.l1 covers nothing", "sd 0x1000 5\ncflush.d.l1 0x1000\nfence", nil, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := isa.Parse(tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			timings := make([]boom.Timing, len(p.Instrs))
			for _, i := range tc.pending {
				timings[i].CompletedAt = -1
			}
			nvmm := func(addr uint64) uint64 {
				if addr == 0x1000 {
					return tc.nvmm
				}
				return 0
			}
			if msg := durabilityViolation(p, timings, nvmm); (msg == "") != tc.ok {
				t.Fatalf("durabilityViolation = %q, want ok %v", msg, tc.ok)
			}
		})
	}
}
