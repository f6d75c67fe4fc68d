package tilelink

import "testing"

// TestOpcodeClassification pins, per opcode, the name traces and hang
// reports print, whether it carries a line of payload, and whether it is
// one of the paper's RootRelease requests (and which probing strategy it
// selects, §5.5).
func TestOpcodeClassification(t *testing.T) {
	cases := []struct {
		op                    Opcode
		name                  string
		data, root, rootClean bool
	}{
		{OpAcquireBlock, "AcquireBlock", false, false, false},
		{OpAcquirePerm, "AcquirePerm", false, false, false},
		{OpProbe, "Probe", false, false, false},
		{OpProbeAck, "ProbeAck", false, false, false},
		{OpProbeAckData, "ProbeAckData", true, false, false},
		{OpRelease, "Release", false, false, false},
		{OpReleaseData, "ReleaseData", true, false, false},
		{OpRootReleaseFlush, "RootReleaseFlush", false, true, false},
		{OpRootReleaseClean, "RootReleaseClean", false, true, true},
		{OpRootReleaseFlushData, "RootReleaseFlushData", true, true, false},
		{OpRootReleaseCleanData, "RootReleaseCleanData", true, true, true},
		{OpGrant, "Grant", false, false, false},
		{OpGrantData, "GrantData", true, false, false},
		{OpGrantDataDirty, "GrantDataDirty", true, false, false},
		{OpReleaseAck, "ReleaseAck", false, false, false},
		{OpRootReleaseAck, "RootReleaseAck", false, false, false},
		{OpGrantAck, "GrantAck", false, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.op.String(); got != c.name {
				t.Errorf("String() = %q, want %q", got, c.name)
			}
			if got := c.op.HasData(); got != c.data {
				t.Errorf("HasData() = %v, want %v", got, c.data)
			}
			if got := c.op.IsRootRelease(); got != c.root {
				t.Errorf("IsRootRelease() = %v, want %v", got, c.root)
			}
			if got := c.op.IsRootReleaseClean(); got != c.rootClean {
				t.Errorf("IsRootReleaseClean() = %v, want %v", got, c.rootClean)
			}
			// The new messages ride existing opcodes of the same payload
			// shape on the wire (§5.1).
			if enc, _ := c.op.WireEncoding(); enc.HasData() != c.data {
				t.Errorf("wire encoding %v disagrees on payload", enc)
			}
		})
	}
	if got := Opcode(250).String(); got != "Opcode(250)" {
		t.Errorf("unknown opcode renders %q", got)
	}
}

// TestMsgString: the debug rendering shows the parameter meaningful on the
// message's channel, and only that one.
func TestMsgString(t *testing.T) {
	var line Line
	cases := []struct {
		name string
		msg  Msg
		want string
	}{
		{"acquire shows grow", Msg{Op: OpAcquireBlock, Addr: 0x40, Source: 1, Grow: GrowBtoT},
			"AcquireBlock addr=0x40 src=1 grow=BtoT"},
		{"probe shows cap", Msg{Op: OpProbe, Addr: 0x80, Cap: CapToB},
			"Probe addr=0x80 src=0 cap=toB"},
		{"release shows shrink and payload", Msg{Op: OpReleaseData, Addr: 0xc0, Shrink: ShrinkTtoN, Data: line},
			"ReleaseData addr=0xc0 src=0 shrink=TtoN data[64]"},
		{"root release omits shrink", Msg{Op: OpRootReleaseFlushData, Addr: 0x100, Data: line},
			"RootReleaseFlushData addr=0x100 src=0 data[64]"},
		{"grant shows cap", Msg{Op: OpGrantDataDirty, Addr: 0x140, Cap: CapToT, Data: line},
			"GrantDataDirty addr=0x140 src=0 cap=toT data[64]"},
		{"acks carry no parameter", Msg{Op: OpRootReleaseAck, Addr: 0x180},
			"RootReleaseAck addr=0x180 src=0"},
		{"grant ack", Msg{Op: OpGrantAck, Addr: 0x1c0, Source: 3},
			"GrantAck addr=0x1c0 src=3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.msg.String(); got != c.want {
				t.Fatalf("String() = %q, want %q", got, c.want)
			}
		})
	}
}

// TestPermissionNames pins the permission, cap and shrink spellings hang
// reports and protocol errors print, including the fallback for values
// outside the protocol.
func TestPermissionNames(t *testing.T) {
	cases := []struct{ got, want string }{
		{PermNone.String(), "None"},
		{PermBranch.String(), "Branch"},
		{PermTrunk.String(), "Trunk"},
		{Perm(9).String(), "Perm(9)"},
		{GrowNtoB.String(), "NtoB"},
		{GrowNtoT.String(), "NtoT"},
		{Grow(7).String(), "Grow(7)"},
		{CapToN.String(), "toN"},
		{CapToB.String(), "toB"},
		{CapToT.String(), "toT"},
		{Cap(5).String(), "Cap(5)"},
		{ShrinkTtoB.String(), "TtoB"},
		{ShrinkBtoN.String(), "BtoN"},
		{ShrinkTtoT.String(), "TtoT"},
		{ShrinkBtoB.String(), "BtoB"},
		{ShrinkNtoN.String(), "NtoN"},
		{Shrink(8).String(), "Shrink(8)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}
