package cpuid

import (
	"runtime"
	"testing"
)

// TestFeatures checks the one ordering the answer must keep: the gate
// kernel's AVX2 and FMA are only usable where AVX is, and off amd64 no
// x86 extension is reported.
func TestFeatures(t *testing.T) {
	avx, avx2fma := Features()
	t.Logf("%s: avx=%v avx2fma=%v", runtime.GOARCH, avx, avx2fma)
	if avx2fma && !avx {
		t.Fatal("AVX2 and FMA reported without AVX")
	}
	if runtime.GOARCH != "amd64" && (avx || avx2fma) {
		t.Fatalf("x86 extensions reported on %s", runtime.GOARCH)
	}
}
