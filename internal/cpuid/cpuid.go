// Package cpuid decides once, for every SIMD kernel list in the module,
// which x86 vector extensions the CPU has and the operating system
// enables. The dsp butterflies and passes, the BRNN gemm pairs and gate
// row, and the MFCC passes all choose their kernels from its answer.
package cpuid
