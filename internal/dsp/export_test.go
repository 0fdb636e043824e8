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
