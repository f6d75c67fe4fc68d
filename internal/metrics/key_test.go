package metrics

import (
	"regexp"
	"testing"

	"skipit/internal/detrand"
)

// The key grammars as regular expressions: the oracle validComponent and
// validName must agree with on every input.
var (
	componentOracle = regexp.MustCompile(`^[a-z0-9_]+(\[[0-9]+\])?$`)
	nameOracle      = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)*$`)
)

func checkKeyScanners(t *testing.T, s string) {
	t.Helper()
	if got, want := validComponent(s), componentOracle.MatchString(s); got != want {
		t.Errorf("validComponent(%q) = %v, regexp says %v", s, got, want)
	}
	if got, want := validName(s), nameOracle.MatchString(s); got != want {
		t.Errorf("validName(%q) = %v, regexp says %v", s, got, want)
	}
}

// TestKeyScannersEdgeCases checks the scanners against the regexps on the
// boundaries of both grammars: empty strings, empty or repeated indices, a
// bare index, junk after the index, stray dots, uppercase, punctuation and
// non-ASCII.
func TestKeyScannersEdgeCases(t *testing.T) {
	cases := []string{
		"", "l1[]", "l1[0]", "l1[0][1]", "[0]", "l1[0]x", "a.", ".a", "a..b",
		"A", "a-b", "é", "a", "_", "0", "l1[12]", "l1[", "l1]", "l1[]]",
		"l1[0", "l1[a]", "a.b", "a.b.c", "a.b[0]", "flush[12]", "l2",
		"listbuffer.depth", "a\n", "a b", "ab\x00", "a\xff",
	}
	for _, s := range cases {
		checkKeyScanners(t, s)
	}
}

// TestKeyScannersRandomSweep checks the scanners against the regexps on a
// seeded sweep of short strings over the grammars' bytes plus a few others.
func TestKeyScannersRandomSweep(t *testing.T) {
	alphabet := []string{
		"a", "z", "m", "0", "9", "5", "_", "[", "]", ".",
		"A", "-", " ", "/", "\n", "é",
	}
	r := detrand.New(1)
	var buf []byte
	for n := 0; n < 200000; n++ {
		buf = buf[:0]
		for k := r.Intn(9); k > 0; k-- {
			buf = append(buf, alphabet[r.Intn(len(alphabet))]...)
		}
		checkKeyScanners(t, string(buf))
		if t.Failed() {
			return
		}
	}
}
