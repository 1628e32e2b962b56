// Package uncalled is the fixture of TestFindUncalledResolvesByReceiver:
// only A.Foo is called, and the struct field key Chain is not a use of the
// func Chain.
package uncalled

type A struct{}

func (A) Foo() {}

type B struct{}

func (B) Foo() {}

type S struct{ Chain int }

func Chain() {}

func init() {
	A{}.Foo()
	_ = B{}
	_ = S{Chain: 1}
}
