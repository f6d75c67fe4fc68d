package l1

import (
	"testing"

	"skipit/internal/tilelink"
)

// TestAmoReadModifyWrite: an AMO returns the word's old value and leaves
// the modified word in a dirty line, whether it hits a writable line or
// goes through an MSHR; a cold AMO acquires Trunk, one on a Branch copy
// upgrades it.
func TestAmoReadModifyWrite(t *testing.T) {
	const addr = 0x3000
	cases := []struct {
		name     string
		kind     ReqKind
		warm     func(r *l1rig) // brings the line in (or not) before the AMO
		operand  uint64
		old, new uint64
		grow     tilelink.Grow // Grow of the acquire the AMO itself issues
		acquires int           // acquires in total, warm-up included
	}{
		{"add on writable hit", AmoAdd, func(r *l1rig) { r.do(Req{Kind: Store, Addr: addr, Data: 10}) },
			5, 10, 15, tilelink.GrowNtoT, 1},
		{"swap on writable hit", AmoSwap, func(r *l1rig) { r.do(Req{Kind: Store, Addr: addr, Data: 10}) },
			99, 10, 99, tilelink.GrowNtoT, 1},
		{"add on cold miss", AmoAdd, func(*l1rig) {},
			2, 40, 42, tilelink.GrowNtoT, 1},
		{"swap on cold miss", AmoSwap, func(*l1rig) {},
			7, 40, 7, tilelink.GrowNtoT, 1},
		{"add on branch copy upgrades", AmoAdd, func(r *l1rig) { r.do(Req{Kind: Load, Addr: addr}) },
			1, 40, 41, tilelink.GrowBtoT, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newL1Rig(t, nil)
			r.mgr.fill[addr] = 40
			c.warm(r)
			r.drain()
			if got := r.do(Req{Kind: c.kind, Addr: addr, Data: c.operand}); got.Data != c.old {
				t.Fatalf("%v returned %d, want old value %d", c.kind, got.Data, c.old)
			}
			r.drain()
			if len(r.mgr.acquires) != c.acquires {
				t.Fatalf("%d acquires, want %d", len(r.mgr.acquires), c.acquires)
			}
			if g := r.mgr.acquires[len(r.mgr.acquires)-1].Grow; g != c.grow {
				t.Fatalf("last acquire grew %v, want %v", g, c.grow)
			}
			if st := r.d.LineState(addr); !st.Valid || !st.Dirty {
				t.Fatalf("line after AMO: %+v, want valid and dirty", st)
			}
			if got := r.do(Req{Kind: Load, Addr: addr}); got.Data != c.new {
				t.Fatalf("load after %v = %d, want %d", c.kind, got.Data, c.new)
			}
		})
	}
}

// TestCflushDL1EvictsLine: the vendor eviction releases a resident line to
// the L2 (with data only if dirty) and invalidates it, and completes
// without traffic when the line is not in the L1 (§2.6).
func TestCflushDL1EvictsLine(t *testing.T) {
	t.Run("dirty line releases its data", func(t *testing.T) {
		r := newL1Rig(t, nil)
		r.do(Req{Kind: Store, Addr: 0x1000, Data: 21})
		r.drain()
		if resp := r.do(Req{Kind: CflushDL1, Addr: 0x1000}); resp.Nack {
			t.Fatal("cflush nacked")
		}
		r.drain()
		if len(r.mgr.releases) != 1 || r.mgr.releases[0].Op != tilelink.OpReleaseData {
			t.Fatalf("releases = %v, want one ReleaseData", r.mgr.releases)
		}
		if rel := r.mgr.releases[0]; rel.Data[0] != 21 || rel.Shrink != tilelink.ShrinkTtoN {
			t.Fatalf("release carried data %d shrink %v", rel.Data[0], rel.Shrink)
		}
		if r.d.LineState(0x1000).Valid {
			t.Fatal("cflush left the line valid")
		}
		if len(r.mgr.rootReleases) != 0 {
			t.Fatal("cflush reached past the L2 with a RootRelease")
		}
	})
	t.Run("clean line releases without data", func(t *testing.T) {
		r := newL1Rig(t, nil)
		r.do(Req{Kind: Load, Addr: 0x1000})
		r.drain()
		r.do(Req{Kind: CflushDL1, Addr: 0x1000})
		r.drain()
		if len(r.mgr.releases) != 1 || r.mgr.releases[0].Op != tilelink.OpRelease {
			t.Fatalf("releases = %v, want one data-less Release", r.mgr.releases)
		}
		if s := r.mgr.releases[0].Shrink; s != tilelink.ShrinkBtoN {
			t.Fatalf("clean branch copy released with shrink %v, want BtoN", s)
		}
		if r.d.LineState(0x1000).Valid {
			t.Fatal("cflush left the line valid")
		}
	})
	t.Run("absent line completes without traffic", func(t *testing.T) {
		r := newL1Rig(t, nil)
		if resp := r.do(Req{Kind: CflushDL1, Addr: 0x5000}); resp.Nack {
			t.Fatal("cflush of an absent line nacked")
		}
		r.drain()
		if len(r.mgr.acquires)+len(r.mgr.releases)+len(r.mgr.rootReleases) != 0 {
			t.Fatalf("absent-line cflush sent traffic: %d acquires, %d releases, %d root releases",
				len(r.mgr.acquires), len(r.mgr.releases), len(r.mgr.rootReleases))
		}
	})
	t.Run("line refetches after eviction", func(t *testing.T) {
		r := newL1Rig(t, nil)
		r.mgr.fill[0x1000] = 8
		r.do(Req{Kind: Load, Addr: 0x1000})
		r.drain()
		r.do(Req{Kind: CflushDL1, Addr: 0x1000})
		r.drain()
		if got := r.do(Req{Kind: Load, Addr: 0x1000}); got.Data != 8 {
			t.Fatalf("reload = %d, want 8", got.Data)
		}
		if len(r.mgr.acquires) != 2 {
			t.Fatalf("%d acquires, want a second one after the eviction", len(r.mgr.acquires))
		}
	})
}
