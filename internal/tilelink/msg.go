package tilelink

import "fmt"

// Channel identifies one of the five unidirectional TileLink channels.
// A, C and E flow from client to manager; B and D flow from manager to client.
type Channel uint8

const (
	ChannelA Channel = iota
	ChannelB
	ChannelC
	ChannelD
	ChannelE
)

func (c Channel) String() string {
	return [...]string{"A", "B", "C", "D", "E"}[c]
}

// Opcode identifies a TileLink coherence message. The set covers the TL-C
// messages described in §2.2 of the paper plus the extensions of §5.1 and §6:
//
//   - RootReleaseFlush / RootReleaseClean are the paper's new C-channel
//     messages, encoded on the wire as ProbeAck with parameters FLUSH and
//     CLEAN to avoid widening the opcode bitvector (§5.1).
//   - RootReleaseAck is the paper's new D-channel message, encoded as
//     ReleaseAck with parameter ROOT.
//   - GrantDataDirty is Skip It's D-channel message (§6): identical to
//     GrantData except it tells the receiving L1 that the line is not
//     persisted, so the skip bit must be left unset.
type Opcode uint8

const (
	// Channel A (client -> manager).
	OpAcquireBlock Opcode = iota
	OpAcquirePerm         // defined by TileLink; unsupported by the BOOM L1 (§3.3)

	// Channel B (manager -> client).
	OpProbe

	// Channel C (client -> manager).
	OpProbeAck
	OpProbeAckData
	OpRelease
	OpReleaseData
	OpRootReleaseFlush     // new (§5.1); wire encoding ProbeAck{param: FLUSH}
	OpRootReleaseClean     // new (§5.1); wire encoding ProbeAck{param: CLEAN}
	OpRootReleaseFlushData // RootReleaseFlush carrying the dirty line
	OpRootReleaseCleanData // RootReleaseClean carrying the dirty line

	// Channel D (manager -> client).
	OpGrant
	OpGrantData
	OpGrantDataDirty // new (§6); GrantData for a line that is dirty in L2
	OpReleaseAck
	OpRootReleaseAck // new (§5.1); wire encoding ReleaseAck{param: ROOT}

	// Channel E (client -> manager).
	OpGrantAck
)

var opcodeNames = map[Opcode]string{
	OpAcquireBlock:         "AcquireBlock",
	OpAcquirePerm:          "AcquirePerm",
	OpProbe:                "Probe",
	OpProbeAck:             "ProbeAck",
	OpProbeAckData:         "ProbeAckData",
	OpRelease:              "Release",
	OpReleaseData:          "ReleaseData",
	OpRootReleaseFlush:     "RootReleaseFlush",
	OpRootReleaseClean:     "RootReleaseClean",
	OpRootReleaseFlushData: "RootReleaseFlushData",
	OpRootReleaseCleanData: "RootReleaseCleanData",
	OpGrant:                "Grant",
	OpGrantData:            "GrantData",
	OpGrantDataDirty:       "GrantDataDirty",
	OpReleaseAck:           "ReleaseAck",
	OpRootReleaseAck:       "RootReleaseAck",
	OpGrantAck:             "GrantAck",
}

func (o Opcode) String() string {
	if s, ok := opcodeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o)) //skipit:ignore hotalloc Sprintf fallback for unknown opcodes only; named opcodes return interned strings
}

// Chan returns the channel the opcode travels on.
func (o Opcode) Chan() Channel {
	switch o {
	case OpAcquireBlock, OpAcquirePerm:
		return ChannelA
	case OpProbe:
		return ChannelB
	case OpProbeAck, OpProbeAckData, OpRelease, OpReleaseData,
		OpRootReleaseFlush, OpRootReleaseClean,
		OpRootReleaseFlushData, OpRootReleaseCleanData:
		return ChannelC
	case OpGrant, OpGrantData, OpGrantDataDirty, OpReleaseAck, OpRootReleaseAck:
		return ChannelD
	case OpGrantAck:
		return ChannelE
	}
	panic(fmt.Sprintf("tilelink: opcode %v has no channel", o))
}

// HasData reports whether the message carries a full cache line of payload
// and therefore occupies the link for lineBytes/beatBytes beats.
func (o Opcode) HasData() bool {
	switch o {
	case OpProbeAckData, OpReleaseData, OpGrantData, OpGrantDataDirty,
		OpRootReleaseFlushData, OpRootReleaseCleanData:
		return true
	}
	return false
}

// IsRootRelease reports whether the opcode is one of the paper's new
// root-writeback requests.
func (o Opcode) IsRootRelease() bool {
	switch o {
	case OpRootReleaseFlush, OpRootReleaseClean,
		OpRootReleaseFlushData, OpRootReleaseCleanData:
		return true
	}
	return false
}

// IsRootReleaseClean reports whether the opcode is a RootReleaseClean
// (either variant); callers use it to pick the §5.5 probing strategy.
func (o Opcode) IsRootReleaseClean() bool {
	return o == OpRootReleaseClean || o == OpRootReleaseCleanData
}

// WireEncoding returns the pre-existing TileLink opcode and textual parameter
// the message is encoded as on the wire (§5.1). Messages that are part of
// standard TileLink encode as themselves with an empty parameter.
func (o Opcode) WireEncoding() (Opcode, string) {
	switch o {
	case OpRootReleaseFlush:
		return OpProbeAck, "FLUSH"
	case OpRootReleaseClean:
		return OpProbeAck, "CLEAN"
	case OpRootReleaseFlushData:
		return OpProbeAckData, "FLUSH"
	case OpRootReleaseCleanData:
		return OpProbeAckData, "CLEAN"
	case OpRootReleaseAck:
		return OpReleaseAck, "ROOT"
	}
	return o, ""
}

// LineBytes is the cache-line size of every cycle-simulator component: the
// SonicBOOM L1, the inclusive L2 and DRAM all move 64 B lines (§3.3), four
// 16 B beats on the system bus. Component constructors reject any other size.
const LineBytes = 64

// Line is one cache line of data. Lines are carried by value wherever they
// move — a Msg payload, a memory request or response, an MSHR, a writeback
// or flush buffer — so a line in flight has no owner and nothing to release.
type Line [LineBytes]byte

// Msg is a single TileLink message. Addr is always cache-line aligned; Data
// is all zeros unless Op.HasData(). Source identifies the client agent on
// links that multiplex several clients (our point-to-point links keep it for
// bookkeeping and assertions).
type Msg struct {
	Op     Opcode
	Addr   uint64
	Source int

	// Exactly one of the following parameter fields is meaningful,
	// depending on the opcode's channel:
	Grow   Grow   // Acquire*
	Cap    Cap    // Probe, Grant*
	Shrink Shrink // ProbeAck*, Release*

	// Dirty distinguishes RootRelease messages whose line carried dirty
	// data and GrantDataDirty bookkeeping in assertions.
	Dirty bool

	// Txn is the coherence-transaction id the message belongs to: assigned
	// by the initiating agent (L1 miss, writeback, flush FSHR) and echoed by
	// the responder on every reply, so a whole Acquire→Grant→GrantAck or
	// RootRelease→RootReleaseAck chain shares one id. Purely observational:
	// no component's behavior may depend on it. 0 means unassigned.
	Txn uint64

	Data Line
}

func (m Msg) String() string {
	s := fmt.Sprintf("%s addr=%#x src=%d", m.Op, m.Addr, m.Source)
	switch m.Op.Chan() {
	case ChannelA:
		s += " grow=" + m.Grow.String()
	case ChannelB:
		s += " cap=" + m.Cap.String()
	case ChannelC:
		if !m.Op.IsRootRelease() {
			s += " shrink=" + m.Shrink.String()
		}
	case ChannelD:
		if m.Op == OpGrant || m.Op == OpGrantData || m.Op == OpGrantDataDirty {
			s += " cap=" + m.Cap.String()
		}
	}
	if m.Op.HasData() {
		s += fmt.Sprintf(" data[%d]", len(m.Data))
	}
	return s
}

// Validate checks structural legality of the message: line alignment, and
// no payload on a data-less opcode. It is used in tests and in link
// assertions.
func (m Msg) Validate(lineBytes uint64) error {
	if m.Addr%lineBytes != 0 {
		return fmt.Errorf("tilelink: %v: address not line aligned", m)
	}
	if !m.Op.HasData() && m.Data != (Line{}) {
		return fmt.Errorf("tilelink: %v: unexpected payload on data-less opcode", m)
	}
	return nil
}
