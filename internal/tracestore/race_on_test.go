//go:build race

package tracestore

// raceBuild: under the race detector sync.Pool drops a share of what it is
// given, so allocation counts are not the decoder's.
const raceBuild = true
