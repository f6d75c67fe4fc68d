package trace

import (
	"strings"
	"testing"
)

// TestTextRendersEachField: a line carries the cycle, the component, the
// code and the line address, then the txn id, the cause by name and the
// code's named arg, each only when the event has one. An event about line 0
// still prints its address.
func TestTextRendersEachField(t *testing.T) {
	var sb strings.Builder
	tx := NewText(&sb)
	tx.Record("flush[0]", RecEvent{Cycle: 12, Code: RecSkipAudit, Cause: CauseDirtyLine, Txn: 5, Addr: 0x1040, Arg: 1})
	tx.Record("mem", RecEvent{Cycle: 300, Code: RecMemRead, Addr: 0})
	tx.Record("l1[1]", RecEvent{Cycle: 7, Code: RecAcquire, Cause: CauseNtoT, Txn: 9, Addr: 0x80})
	tx.Record("l2", RecEvent{Cycle: 8, Code: RecGrant, Txn: 9, Addr: 0x80, Arg: 1})
	want := []string{
		"      12  flush[0] skip-audit           0x1040  txn=5 dirty-line issued=1",
		"     300  mem      mem-read                0x0",
		"       7  l1[1]    acquire                0x80  txn=9 NtoT",
		"       8  l2       grant                  0x80  txn=9 client=1",
	}
	if got := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("text lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestEveryArgHasOneName: a code names its arg for the renderers, and a
// cause renders by name, so no event needs a free-form detail string.
func TestEveryArgHasOneName(t *testing.T) {
	for code, name := range map[RecCode]string{
		RecGrant: "client", RecProbe: "client", RecRootRelease: "client", RecRootReleaseAck: "client",
		RecRelease: "dirty", RecCboEnqueue: "depth", RecFSHRAlloc: "fshr", RecFSHRAck: "latency",
		RecSkipAudit: "issued", RecMemRead: "", RecCode(200): "",
	} {
		if got := code.argName(); got != name {
			t.Errorf("%v names its arg %q, want %q", code, got, name)
		}
	}
	if CboKind(true) != CauseClean || CboKind(false) != CauseFlush {
		t.Fatal("CboKind does not name the CBO kind")
	}
}

// TestTxnSeqNumbering: ids start at 1 and count up by one, 0 stays free to
// mean "no transaction", and a nil sequence hands out 0.
func TestTxnSeqNumbering(t *testing.T) {
	var s TxnSeq
	for want := uint64(1); want <= 5; want++ {
		if got := s.Next(); got != want {
			t.Fatalf("Next() = %d, want %d", got, want)
		}
	}
	var nilSeq *TxnSeq
	if got := nilSeq.Next(); got != 0 {
		t.Fatalf("nil sequence returned %d", got)
	}
}
