//go:build race

package metaprov_test

// raceBuild: under the race detector sync.Pool drops a share of what it is
// given, so allocation counts are not the solver's.
const raceBuild = true
