package mfcc

import (
	"reflect"
	"testing"

	"vibguard/internal/cpuid"
)

// On a CPU with AVX the list the tests above run must hold the assembly
// passes, the log lanes included, or they pin nothing new.
func TestKernelsListed(t *testing.T) {
	if avx, _ := cpuid.Features(); !avx {
		t.Skip("no AVX: the pure-Go passes run")
	}
	k := kernels()[0]
	if reflect.ValueOf(k.emphasize).Pointer() != reflect.ValueOf(emphasizeAVX).Pointer() {
		t.Errorf("%s pre-emphasis is not the AVX pass", k.name)
	}
	src := make([]float64, 40)
	for i := range src {
		src[i] = float64(i + 1)
	}
	if got := k.logs(make([]float64, 40), src, 1e-12, 0); got != 40 {
		t.Errorf("%s log lanes stopped at %d of 40", k.name, got)
	}
}
