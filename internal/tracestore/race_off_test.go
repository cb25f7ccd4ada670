//go:build !race

package tracestore

const raceBuild = false
