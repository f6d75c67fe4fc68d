// Package hotfix is the hotalloc-analyzer fixture: allocation constructs
// inside and outside //skipit:hotpath functions, plus suppression waivers.
package hotfix

type line struct {
	data []byte
	tag  uint64
}

type sink interface{ accept(interface{}) }

// notHot allocates freely: no directive, no diagnostics.
func notHot(n int) []byte {
	buf := make([]byte, n)
	buf = append(buf, 1)
	return buf
}

//skipit:hotpath
func hotAllocs(n int, s []int, snk sink, f func(any)) {
	_ = make([]byte, n) // want `make allocates`
	_ = new(line)       // want `new allocates`
	s = append(s, n)    // want `append may grow and allocate`
	_ = map[int]int{}   // want `map literal allocates`
	_ = []int{1, 2}     // want `slice literal allocates`
	_ = &line{tag: 1}   // want `pointer-to-composite literal allocates`
	v := line{tag: 2}   // ok: value composite stays on the stack
	_ = v

	snk.accept(n) // want `interface boxing of int value allocates`
	f(v)          // want `interface boxing of .*line value allocates`
	f(&v)         // ok: pointers fit the interface word
	f(nil)        // ok: nil boxes nothing

	var i interface{} = v // want `interface boxing of .*line value allocates`
	_ = i

	_ = []byte("conv") // want `conversion string -> \[\]byte copies and allocates`
	_ = uint64(n)      // ok: numeric conversions do not allocate
}

//skipit:hotpath
func hotClosures(xs []int) func() int {
	total := 0
	inc := func() int { // want `closure captures total`
		total++
		return total
	}
	for range xs {
		defer inc() // want `defer inside a loop heap-allocates its record`
	}
	pure := func() int { return 42 } // ok: captures nothing
	_ = pure
	return inc
}

//skipit:hotpath
func hotReturnsBox(v line) interface{} {
	return v // want `interface boxing of .*line value allocates`
}

//skipit:hotpath
func hotWaived(n int) []byte {
	//skipit:ignore hotalloc cold fallback taken only on first touch
	return make([]byte, n)
}
