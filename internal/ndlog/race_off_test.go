//go:build !race

package ndlog_test

const raceBuild = false
