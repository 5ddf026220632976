// Package lib plants one case of each rule of the reach check.
package lib

// Used is reached by the program.
func Used() int { return 1 }

// Unreached is reached by no program file: only lib_test.go calls it, and
// itself.
func Unreached(n int) int {
	if n > 0 {
		return Unreached(n - 1)
	}
	return 0
}

// Seam is reached by no program file, and the allowlist keeps it.
func Seam() int { return 2 }

// Shape is the interface the program calls Area through.
type Shape interface{ Area() float64 }

// Square is reached only as a Shape, and printed as a fmt.Stringer.
type Square struct{ Side float64 }

// NewShape returns a Square as a Shape.
func NewShape(side float64) Shape { return Square{Side: side} }

// Area is reached only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// String is reached only through fmt.Stringer.
func (s Square) String() string { return "square" }

// Box is a generic type whose method the program calls on an instantiation.
type Box[T any] struct{ v T }

// NewBox returns a box holding v.
func NewBox[T any](v T) Box[T] { return Box[T]{v: v} }

// Get is reached only through Box[int].
func (b Box[T]) Get() T { return b.v }

type wrapped struct{ err error }

// Wrap returns err wrapped, for errors.Unwrap to take apart.
func Wrap(err error) error { return &wrapped{err: err} }

// Error is reached only through error.
func (w *wrapped) Error() string { return "wrapped: " + w.err.Error() }

// Unwrap is reached only by the errors package.
func (w *wrapped) Unwrap() error { return w.err }
