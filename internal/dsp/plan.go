package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"runtime"
	"slices"
	"sync"
	"unsafe"
)

// This file implements the planned FFT engine: transforms that precompute
// their twiddle tables once per size and cache the result process-wide, so
// the hot paths (STFT frames, MFCC power spectra, FFT-based delay search)
// never recompute trigonometry or allocate per call. They never permute
// either: a forward transform leaves bin rev(p) at position p (rev reverses
// the index bits), every per-bin pass works in that layout, and an inverse
// takes it as its input (DESIGN.md §9).
//
// Plans are immutable after construction and therefore safe for concurrent
// use from any number of goroutines — the eval package's ParallelScorer
// workers all share one plan per size. Callers own the scratch/destination
// buffers, which keeps the mutable state out of the shared plan; the
// package's own transforms borrow theirs from the plan's scratch pool.

// FFTPlan holds the precomputed state for radix-2 transforms of one
// power-of-two size: the bit-reversal index map and flattened per-stage
// twiddle-factor tables for both transform directions.
//
// The twiddle tables are filled with the same repeated-multiplication
// recurrence the previous per-call implementation used, so planned
// transforms are bit-identical to the historical fftRadix2 output (golden
// metrics do not shift).
type FFTPlan struct {
	n    int
	perm []int32      // bit-reversal target index per position
	fwd  []complex128 // forward twiddles per stage in group order (n-1 entries, see forwardGeneric)
	inv  []complex128 // inverse twiddles, stages flattened (n-1 entries, see fillTwiddles)
	// scratch recycles n-entry work buffers (boxed as *[]complex128) for
	// the package's transforms that need one per call.
	scratch sync.Pool
}

// planCache maps transform length -> *FFTPlan. sync.Map suits the
// write-once/read-many pattern: lengths are powers of two, so at most one
// plan per bit width is ever built, and they are looked up from every
// scoring worker.
var planCache sync.Map

// PlanFFT returns the cached transform plan for length n, building and
// caching it on first use. n must be a positive power of two.
func PlanFFT(n int) (*FFTPlan, error) {
	if err := ValidateLength(n); err != nil {
		return nil, err
	}
	if v, ok := planCache.Load(n); ok {
		return v.(*FFTPlan), nil
	}
	v, _ := planCache.LoadOrStore(n, newFFTPlan(n))
	return v.(*FFTPlan), nil
}

// mustPlanFFT is PlanFFT for callers that construct n as a power of two
// themselves (NextPow2 results and validated configs).
func mustPlanFFT(n int) *FFTPlan {
	p, err := PlanFFT(n)
	if err != nil {
		panic(err)
	}
	return p
}

func newFFTPlan(n int) *FFTPlan {
	p := &FFTPlan{n: n, perm: make([]int32, n)}
	lg := bits.TrailingZeros(uint(n))
	for i := 0; i < n; i++ {
		p.perm[i] = int32(bits.Reverse64(uint64(i)) >> (64 - lg))
	}
	if n > 1 {
		p.fwd = make([]complex128, n-1)
		p.inv = make([]complex128, n-1)
		fillTwiddles(p.fwd, n, -1)
		fillTwiddles(p.inv, n, +1)
		// The stage of half-size h gives group g the twiddle of butterfly
		// rev(g) of its block (rev over log2(h) bits).
		for half, s := 2, 1; half < n; half, s = 2*half, s+1 {
			t := slices.Clone(p.fwd[half-1 : 2*half-1])
			for g := range t {
				p.fwd[half-1+g] = t[p.perm[g]>>(lg-s)]
			}
		}
	}
	return p
}

// fillTwiddles writes the stage-k twiddle factors for every butterfly stage,
// flattened as [stage size=2 | size=4 | ... | size=n]. The values are
// produced by the same w *= wStep recurrence the pre-plan code evaluated
// inside the butterfly loop, which keeps planned output bit-identical to it.
func fillTwiddles(dst []complex128, n int, sign float64) {
	off := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		wStep := cmplx.Rect(1, sign*2*math.Pi/float64(size))
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			dst[off+k] = w
			w *= wStep
		}
		off += half
	}
}

// getScratch returns an n-entry buffer from the plan's pool. A recycled
// buffer comes back as its last user left it: callers write or clear every
// entry they read. The boxed header travels through the pool with the
// buffer, so hand the same pointer back to putScratch (re-boxing would
// allocate).
func (p *FFTPlan) getScratch() *[]complex128 {
	if v := p.scratch.Get(); v != nil {
		return v.(*[]complex128)
	}
	buf := make([]complex128, p.n)
	return &buf
}

func (p *FFTPlan) putScratch(buf *[]complex128) { p.scratch.Put(buf) }

// kernel is one implementation of the transforms and the passes around
// them, each with the contract of its Go loop in generic. kernels lists the
// ones this CPU can run, preferred first; all give identical bits.
type kernel struct {
	name        string
	forward     func(x, tw []complex128)
	butterflies func(x, tw []complex128)
	shape       func(y, w []complex128, g, pw []float64, lo, hi int)
	repack      func(y, w []complex128, lo, hi int)
	product     func(za, y, w []complex128, lo, hi int)
	fold        func(f, y []complex128, rev []int32, lo, hi int)
	scale       func(dst, src []float64, s float64)
	maxAbs      func(x []float64, m float64) float64
	cubic       func(x []float64, peak, gain, d float64)
	dct         func(dst, x, tab []float64)
}

// generic is the pure-Go kernel: the fallback and the tests' oracle.
var generic = kernel{"generic", forwardGeneric, butterfliesGeneric, shapePairs, repackPairs, productPairs, foldPairs, scaleInto, maxAbsFrom, cubicInto, dctRows}

// kern is the preferred kernel of this CPU; only tests switch it.
var kern = kernels[0]

// forwardGeneric is the forward transform of x in natural order, which
// leaves bin rev(p) at position p, with the group-order twiddle table tw
// (FFTPlan.fwd). Stage by stage (half-size h = 1, 2, ..., n/2), the
// entries d = n/(2h) apart pair up, and group g of 2d entries shares
// twiddle tw[h-1+g].
func forwardGeneric(x, tw []complex128) {
	n := len(x)
	for half := 1; half < n; half <<= 1 {
		d := n / (2 * half)
		for g, w := range tw[half-1 : 2*half-1] {
			blk := x[2*d*g : 2*d*(g+1) : 2*d*(g+1)]
			for j := 0; j < d; j++ {
				a := blk[j]
				b := blk[j+d] * w
				blk[j] = a + b
				blk[j+d] = a - b
			}
		}
	}
}

// butterfliesGeneric runs every radix-2 butterfly stage over x, which must
// already be in bit-reversed order, with the flattened twiddle table tw
// (len(x)-1 entries, see fillTwiddles); len(x) must be a power of two.
// Stage by stage, the stage of half-size h reads twiddle entries h-1 .. 2h-2.
func butterfliesGeneric(x, tw []complex128) {
	n := len(x)
	for half := 1; half < n; half <<= 1 {
		t := tw[half-1 : 2*half-1 : 2*half-1]
		size := 2 * half
		for start := 0; start < n; start += size {
			blk := x[start : start+size : start+size]
			for k := 0; k < half; k++ {
				a := blk[k]
				b := blk[k+half] * t[k]
				blk[k] = a + b
				blk[k+half] = a - b
			}
		}
	}
}

// RealFFTPlan transforms real-valued signals of one power-of-two length by
// packing the 2M input samples into an M-point complex transform and
// unpacking the half spectrum with precomputed twiddles — half the butterfly
// work of a full complex transform. Like FFTPlan it is immutable and safe
// for concurrent use.
type RealFFTPlan struct {
	n      int          // real input length
	half   *FFTPlan     // complex plan of size n/2 (nil when n == 1)
	unpack []complex128 // e^{-2*pi*i*k/n} for bin k at its position, k = rev(p)
	tables sync.Pool    // recycles ShapeDecimate's gain tables and shapeHalf's powers (*[]float64)
}

var realPlanCache sync.Map

// PlanRealFFT returns the cached real-input transform plan for length n,
// building it on first use. n must be a positive power of two.
func PlanRealFFT(n int) (*RealFFTPlan, error) {
	if err := ValidateLength(n); err != nil {
		return nil, err
	}
	if v, ok := realPlanCache.Load(n); ok {
		return v.(*RealFFTPlan), nil
	}
	p := &RealFFTPlan{n: n}
	p.tables.New = func() any { return new([]float64) }
	if n > 1 {
		p.half = mustPlanFFT(n / 2)
		p.unpack = make([]complex128, n/2)
		for i, k := range p.half.perm {
			p.unpack[i] = cmplx.Rect(1, -2*math.Pi*float64(k)/float64(n))
		}
	}
	v, _ := realPlanCache.LoadOrStore(n, p)
	return v.(*RealFFTPlan), nil
}

// NumBins returns the number of single-sided spectrum bins, Size/2+1.
func (p *RealFFTPlan) NumBins() int { return p.n/2 + 1 }

// Scratch returns a correctly sized scratch buffer for PowerInto and
// MagnitudeInto. Reuse it across calls to stay allocation-free; each
// concurrent caller needs its own.
func (p *RealFFTPlan) Scratch() []complex128 { return make([]complex128, p.n/2) }

// PowerInto computes the single-sided power spectrum |X(k)|^2 (bins
// 0..Size/2) of the real signal x (len(x) == Size) into dst and returns
// dst. dst and scratch (see Scratch) are allocated when nil or too small;
// reuse them to make repeated calls allocation-free.
func (p *RealFFTPlan) PowerInto(dst []float64, x []float64, scratch []complex128) []float64 {
	return p.reduceInto(dst, x, scratch, false, p.NumBins())
}

// LowPowerInto is PowerInto for bins 0..bins-1 only (bins <= NumBins), with
// the same bits: the unpack stops after the last bin asked for.
func (p *RealFFTPlan) LowPowerInto(dst []float64, x []float64, scratch []complex128, bins int) []float64 {
	return p.reduceInto(dst, x, scratch, false, bins)
}

// MagnitudeInto computes the single-sided magnitude spectrum |X(k)| of x
// into dst and returns dst, with the buffer semantics of PowerInto.
func (p *RealFFTPlan) MagnitudeInto(dst []float64, x []float64, scratch []complex128) []float64 {
	return p.reduceInto(dst, x, scratch, true, p.NumBins())
}

func (p *RealFFTPlan) reduceInto(dst []float64, x []float64, scratch []complex128, sqrt bool, bins int) []float64 {
	if len(x) != p.n || bins < 1 || bins > p.NumBins() {
		panic("dsp: RealFFTPlan length or bin count mismatch")
	}
	if cap(dst) < bins {
		dst = make([]float64, bins)
	}
	dst = dst[:bins]
	if p.n == 1 {
		if sqrt {
			dst[0] = math.Abs(x[0])
		} else {
			dst[0] = x[0] * x[0]
		}
		return dst
	}
	m := p.n / 2
	if cap(scratch) < m {
		scratch = make([]complex128, m)
	}
	scratch = scratch[:m]
	pack(scratch, x)
	kern.forward(scratch, p.half.fwd)
	// Scalar unpack (shapeHalf's algebra, spelled out on float64 so
	// the compiler keeps everything in registers — this loop dominates the
	// per-frame STFT cost at small sizes). DC and Nyquist come from the
	// packed bin 0 alone; bin k and its partner sit at rev(k) and rev(m-k).
	a0, b0 := real(scratch[0]), imag(scratch[0])
	s, d := a0+b0, a0-b0
	if sqrt {
		s, d = math.Abs(s), math.Abs(d)
	} else {
		s, d = s*s, d*d
	}
	dst[0] = s
	if bins > m {
		dst[m] = d
	}
	w, perm := p.unpack, p.half.perm
	for k := 1; k < min(m, bins); k++ {
		i := perm[k]
		z1, z2 := scratch[i], scratch[perm[m-k]]
		a1, b1 := real(z1), imag(z1)
		a2, b2 := real(z2), imag(z2)
		er, ei := (a1+a2)*0.5, (b1-b2)*0.5
		or, oi := (b1+b2)*0.5, (a2-a1)*0.5
		wr, wi := real(w[i]), imag(w[i])
		re := er + (wr*or - wi*oi)
		im := ei + (wr*oi + wi*or)
		pw := re*re + im*im
		if sqrt {
			pw = math.Sqrt(pw)
		}
		dst[k] = pw
	}
	return dst
}

// pack writes the real signal x (at most 2·len(dst) samples) into dst,
// even samples in the real lane and odd samples in the imaginary lane and
// zero past them: the forward transform's input. dst's old contents are
// not read.
func pack(dst []complex128, x []float64) {
	f := floats(dst)
	clear(f[copy(f, x):])
}

// floats views x as its 2·len(x) float64 lanes, real then imaginary.
func floats(x []complex128) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(x))), 2*len(x))
}

// shapeHalf turns y, the h-point transform Z of the packed signal (h =
// Size/2), into its half spectrum scaled by gain, Y[k] = gain(f_k)·X[k],
// in place. With E and O the spectra of the even and odd samples, E[k] =
// (Z[k]+conj(Z[h-k]))/2, O[k] = -i(Z[k]-conj(Z[h-k]))/2, X[k] = E[k] +
// w^k·O[k] and X[h-k] = conj(E[k] - w^k·O[k]) (w = e^{-2πi/Size}), so each
// pair k, h-k unpacks from the two entries it overwrites. The layout is
// the transform's: Y[k] at position rev(k) for 0 < k < h, and the real
// bins share y[0] = complex(Y[0], Y[h]). It also sums the ungained
// |X[k]|² over bins 1..cut (low) and over bins 1..h (total), in k order;
// DC is in neither, and a negative cut skips both (0). g holds the gain
// of each bin at its position, and of bin h at g[h] (GainTable's order).
func (p *RealFFTPlan) shapeHalf(y []complex128, g []float64, cut int) (low, total float64) {
	h := p.n / 2
	y, g = y[:h], g[:h+1]
	a, b := real(y[0]), imag(y[0])
	nyq := a - b
	y[0] = complex((a+b)*g[0], nyq*g[h])
	var pw []float64 // |X|² of each bin at its position
	if cut >= 0 {
		buf := p.tables.Get().(*[]float64)
		defer p.tables.Put(buf)
		*buf = slices.Grow((*buf)[:0], h)[:h]
		pw = *buf
	}
	shapePairs(y, p.unpack, g, pw, 1, min(h, 8))
	kern.shape(y, p.unpack, g, pw, 8, h)
	if cut < 0 {
		return 0, 0
	}
	for k, perm := 1, p.half.perm; k <= h/2; k++ {
		pk, pj := pw[perm[k]], pw[perm[h-k]]
		if k == h-k {
			pj = 0 // the middle bin is its own partner
		}
		total += pk + pj
		if k <= cut {
			low += pk
		}
		if h-k <= cut {
			low += pj
		}
	}
	if h <= cut {
		low += nyq * nyq
	}
	return low, total + nyq*nyq
}

// shapePairs is shapeHalf's pass over the pairs of the octave blocks
// [b, 2b), lo <= b < hi: bin k below h/2 sits at an even position of its
// block (or at 1, the middle bin) and its partner at the mirror c. With pw
// not empty it stores there each bin's |X|² at the bin's position.
func shapePairs(y, w []complex128, g, pw []float64, lo, hi int) {
	for b := lo; b < hi; b *= 2 {
		for k := b; k < 2*b; k += 2 {
			c := 3*b - 1 - k
			zk, zj := y[k], cmplx.Conj(y[c])
			e := (zk + zj) * complex(0.5, 0)
			wo := w[k] * ((zk - zj) * complex(0, -0.5))
			xk, xj := e+wo, cmplx.Conj(e-wo) // X[k], and X[h-k] by conjugate symmetry
			if len(pw) > 0 {
				pw[c] = real(xj)*real(xj) + imag(xj)*imag(xj)
				pw[k] = real(xk)*real(xk) + imag(xk)*imag(xk)
			}
			gk, gj := g[k], g[c]
			y[k] = complex(real(xk)*gk, imag(xk)*gk)
			y[c] = complex(real(xj)*gj, imag(xj)*gj)
		}
	}
}

// inverseInto inverts y, the packed half spectrum (see shapeHalf) of a
// real Size-point signal x, in place: it re-packs the spectra of the even
// and odd samples as E + iO, runs the Size/2-point inverse transform, and
// writes dst[i] = x[i*step]. (len(dst)-1)*step must be below Size; with
// step 1, dst may be y's own lanes.
func (p *RealFFTPlan) inverseInto(dst []float64, y []complex128, step int) {
	h := p.n / 2
	y = y[:h]
	a, b := real(y[0]), imag(y[0])
	y[0] = complex(a+b, a-b)
	repackPairs(y, p.unpack, 1, min(h, 8))
	kern.repack(y, p.unpack, 8, h)
	kern.butterflies(y, p.half.inv)
	scale := 1 / float64(p.n)
	if step == 1 { // x itself: y's lanes in order, one scaled copy
		kern.scale(dst, floats(y), scale)
		return
	}
	for i := range dst {
		t := i * step
		if v := y[t>>1]; t&1 == 0 {
			dst[i] = real(v) * scale
		} else {
			dst[i] = imag(v) * scale
		}
	}
}

// repackPairs is inverseInto's re-pack of the pairs of the octave blocks
// [b, 2b), lo <= b < hi.
func repackPairs(y, w []complex128, lo, hi int) {
	for b := lo; b < hi; b *= 2 {
		for k := b; k < 2*b; k += 2 {
			c := 3*b - 1 - k
			yk, yj := y[k], cmplx.Conj(y[c])
			// 2E[k] = Y[k] + conj(Y[h-k]) and 2O[k] = conj(w^k)(Y[k] - conj(Y[h-k]));
			// E[h-k] and O[h-k] are their conjugates.
			e := yk + yj
			o := cmplx.Conj(w[k]) * (yk - yj)
			y[k] = e + complex(-imag(o), real(o))
			y[c] = cmplx.Conj(e) + complex(imag(o), real(o))
		}
	}
}

func scaleInto(dst, src []float64, s float64) {
	for i := range dst {
		dst[i] = src[i] * s
	}
}

// bluesteinPlan holds the chirp sequence and the pre-transformed filter
// spectrum of the forward DFT of one arbitrary (non-power-of-two) length,
// built lazily on first use. Only the input-dependent transform pair
// remains per call.
type bluesteinPlan struct {
	n           int
	m           int      // padded power-of-two convolution length (>= 2n-1)
	plan        *FFTPlan // cached plan of size m
	once        sync.Once
	chirp, filt []complex128 // the length-n chirp and the length-m filter spectrum
}

// bluesteinCacheSize bounds the Bluestein plan cache. A ~45k-sample
// signal's plan carries a 131,072-point filter spectrum of two megabytes,
// and arbitrary lengths seldom repeat, so only the most recently used
// plans are kept: at least 4, and two per P so that concurrent callers
// of one length outlive the lengths others insert. No session's replay
// builds a plan (the accelerometer's dominance comes from its own
// power-of-two shaping transform); the callers are the audio-only
// baseline score, the attack generators and the experiments.
func bluesteinCacheSize() int { return max(4, 2*runtime.GOMAXPROCS(0)) }

// bluesteinCache holds the bluesteinCacheSize most recently used plans,
// most recent first. A linear scan of a few entries under one mutex is
// cheaper than the transform it guards.
var bluesteinCache struct {
	mu    sync.Mutex
	plans []*bluesteinPlan
}

func planBluestein(n int) *bluesteinPlan {
	m := NextPow2(2*n - 1)
	plan := mustPlanFFT(m)
	c := &bluesteinCache
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, bp := range c.plans {
		if bp.n == n {
			copy(c.plans[1:i+1], c.plans[:i])
			c.plans[0] = bp
			return bp
		}
	}
	bp := &bluesteinPlan{n: n, m: m, plan: plan}
	keep := min(len(c.plans), bluesteinCacheSize()-1)
	clear(c.plans[keep:]) // drop the evicted plans from the backing array too
	c.plans = append(c.plans[:keep], nil)
	copy(c.plans[1:], c.plans)
	c.plans[0] = bp
	return bp
}

// tables returns the chirp and filter spectrum, building them on first
// use.
func (bp *bluesteinPlan) tables() (chirp, filt []complex128) {
	bp.once.Do(func() {
		bp.chirp = bluesteinChirp(bp.n)
		bp.filt = bp.filter(bp.chirp)
	})
	return bp.chirp, bp.filt
}

// bluesteinChirp builds w[k] = exp(-i*pi*k^2/n), reducing k^2 mod 2n to
// avoid precision loss for large k (identical to the historical code).
func bluesteinChirp(n int) []complex128 {
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		angle := -math.Pi * float64(kk) / float64(n)
		chirp[k] = cmplx.Rect(1, angle)
	}
	return chirp
}

// filter returns the length-m spectrum of the conjugate-chirp correlation
// filter b (b[k] = b[m-k] = conj(chirp[k])) in the transforms' layout,
// computed once per plan.
func (bp *bluesteinPlan) filter(chirp []complex128) []complex128 {
	b := make([]complex128, bp.m)
	for k := 0; k < bp.n; k++ {
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < bp.n; k++ {
		b[bp.m-k] = cmplx.Conj(chirp[k])
	}
	kern.forward(b, bp.plan.fwd)
	return b
}

// reduceInto computes the single-sided power spectrum |X(k)|^2 of the real
// signal x, or its magnitude |X(k)| when sqrt is set, for the n/2+1 bins
// k = 0..n/2 only. Each bin carries the bits of the full complex transform
// of complex(x, 0).
func (bp *bluesteinPlan) reduceInto(x []float64, sqrt bool) []float64 {
	chirp, filt := bp.tables()
	buf := bp.plan.getScratch()
	defer bp.plan.putScratch(buf)
	a := *buf
	for k, v := range x {
		a[k] = complex(v, 0) * chirp[k]
	}
	clear(a[len(x):])
	// The chirp-z convolution: forward transform, product with the filter
	// spectrum, inverse transform.
	kern.forward(a, bp.plan.fwd)
	for i := range a {
		a[i] *= filt[i]
	}
	kern.butterflies(a, bp.plan.inv)
	invM := 1 / float64(bp.m)
	out := make([]float64, bp.n/2+1)
	for k := range out {
		v := a[k] * chirp[k] * complex(invM, 0)
		re, im := real(v), imag(v)
		pw := re*re + im*im
		if sqrt {
			pw = math.Sqrt(pw)
		}
		out[k] = pw
	}
	return out
}
