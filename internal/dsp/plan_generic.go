//go:build !amd64

package dsp

// Off amd64 every pass runs in pure Go.
var kernels = []kernel{generic}
