//go:build race

package ndlog_test

// raceBuild: under the race detector sync.Pool drops a share of what it is
// given, so allocation counts are not the engine's.
const raceBuild = true
