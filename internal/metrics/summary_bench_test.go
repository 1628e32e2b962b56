package metrics

import "testing"

// BenchmarkSummarize guards the one-sort Summarize path: before QuantileSorted
// it sorted the sample set once and then twice more, a copy and a re-sort per
// order statistic.
func BenchmarkSummarize(b *testing.B) {
	values := make([]float64, 10000)
	x := 123456789
	for i := range values {
		x = x * 1103515245 % 2147483647
		values[i] = float64(x % 100000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(values)
	}
}
