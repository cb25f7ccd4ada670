//go:build !race

package metaprov_test

const raceBuild = false
