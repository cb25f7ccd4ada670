// Package scenarios holds no code. The five §5.3 case studies Q1–Q5 live
// in package scenario, which registers them in its default registry on
// import; the tests here run them through that package. This package
// stays only because the benchmark module's workload table blank-imports
// it and that module is frozen until its re-baseline (ROADMAP item 6),
// which deletes the directory and moves the tests into scenario.
package scenarios
