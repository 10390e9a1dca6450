// Package hot holds one function under the allocation contract, for the
// halotislint command's end-to-end test.
package hot

// Sum adds up xs.
//
//halotis:noalloc
func Sum(xs []int) int {
	buf := make([]int, len(xs))
	copy(buf, xs)
	s := 0
	for _, x := range buf {
		s += x
	}
	return s
}
