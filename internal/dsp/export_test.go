package dsp

// KernelNames lists the kernels this CPU can run, preferred first.
func KernelNames() []string {
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.name
	}
	return names
}

// UseKernel makes every transform and pass run on the named kernel and
// returns a function that restores the previous one. Tests that call it
// must not run in parallel with other transforms.
func UseKernel(name string) (restore func()) {
	prev := kern
	for _, k := range kernels {
		if k.name == name {
			kern = k
			return func() { kern = prev }
		}
	}
	panic("dsp: unknown kernel " + name)
}

// BluesteinCacheSize is the current bound on cached Bluestein plans.
func BluesteinCacheSize() int { return bluesteinCacheSize() }

// BluesteinCacheLen returns how many Bluestein plans are cached now.
func BluesteinCacheLen() int {
	c := &bluesteinCache
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.plans)
}

// The natural-order complex transforms are the tests' view of the planned
// engine: the package's own transforms never permute.

// Forward computes the DFT of src into dst, in natural order, and returns
// dst. dst is grown (reallocated) when nil or too short and may alias src
// for an in-place transform; passing a reused buffer makes the call
// allocation-free.
func (p *FFTPlan) Forward(dst, src []complex128) []complex128 {
	dst = p.into(dst, src)
	kern.forward(dst, p.fwd)
	p.permute(dst)
	return dst
}

// Inverse computes the inverse DFT of src into dst, including the 1/N
// normalization, and returns dst. Buffer semantics match Forward.
func (p *FFTPlan) Inverse(dst, src []complex128) []complex128 {
	dst = p.into(dst, src)
	p.permute(dst)
	kern.butterflies(dst, p.inv)
	inv := 1 / float64(p.n)
	for i := range dst {
		dst[i] = complex(real(dst[i])*inv, imag(dst[i])*inv)
	}
	return dst
}

func (p *FFTPlan) into(dst, src []complex128) []complex128 {
	if len(src) != p.n {
		panic("dsp: FFTPlan length mismatch")
	}
	if cap(dst) < p.n {
		dst = make([]complex128, p.n)
	}
	dst = dst[:p.n]
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	return dst
}

// permute applies the bit-reversal permutation to x in place, between the
// natural order of Forward and Inverse and the transforms' layout.
func (p *FFTPlan) permute(x []complex128) {
	for i, pi := range p.perm {
		if j := int(pi); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
}
