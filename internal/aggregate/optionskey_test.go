package aggregate

import (
	"reflect"
	"testing"

	"perfpredict/internal/machine"
	"perfpredict/internal/symexpr"
)

// optionsProgram exercises every aggregation option: a loop whose body
// fuses, hoists, promotes and overlaps, a data-dependent branch, and a
// call the library table can resolve.
const optionsProgram = `program p
  integer i, n
  real x(100), y(100), s
  s = 0.0
  do i = 1, n
    x(i) = x(i) * y(i) + x(i)
    s = s + x(i) * y(1)
    if (x(i) .gt. s) then
      y(i) = y(i) * 2.0 + x(i)
    else
      y(i) = 0.0
    end if
  end do
  call foo(n)
end
`

// TestCachesKeyOnOptions is the aggregation-options regression test:
// a cache filled under the default options must not hand a caller with
// different options the default price. Before the options were part of
// the segment key, x(i) = x(i)*y(i) + x(i) priced with SteadyStateIters
// = 1 read the overlapped 3.75·n + 3 from a warm cache instead of its
// own 6·n + 3.
func TestCachesKeyOnOptions(t *testing.T) {
	m := machine.NewPOWER1()
	p, tbl := parseAnalyze(t, optionsProgram)
	lib := LibraryTable{"foo": {Params: []string{"k"}, Cost: symexpr.NewVar("k").Scale(7)}}
	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"Lower.CSE", func(o *Options) { o.Lower.CSE = false }},
		{"Lower.CodeMotion", func(o *Options) { o.Lower.CodeMotion = false }},
		{"Lower.FuseFMA", func(o *Options) { o.Lower.FuseFMA = false }},
		{"Lower.DeadStoreElim", func(o *Options) { o.Lower.DeadStoreElim = false }},
		{"Lower.RegisterPressure", func(o *Options) { o.Lower.RegisterPressure = 1 }},
		{"Lower.ScalarReplace", func(o *Options) { o.Lower.ScalarReplace = false }},
		{"Tetris.FocusSpan", func(o *Options) { o.Tetris.FocusSpan = 1 }},
		{"Tetris.MayAlias", func(o *Options) { o.Tetris.MayAlias = true }},
		{"Tetris.IgnoreDeps", func(o *Options) { o.Tetris.IgnoreDeps = true }},
		{"Tetris.DispatchWidth", func(o *Options) { o.Tetris.DispatchWidth = 1 }},
		{"SteadyStateIters", func(o *Options) { o.SteadyStateIters = 1 }},
		{"SimplifyCloseBranches", func(o *Options) { o.SimplifyCloseBranches = false }},
		{"CloseTol", func(o *Options) { o.CloseTol = 0.9 }},
		{"AssumeBranchProb", func(o *Options) { o.AssumeBranchProb = 0.25 }},
		{"Library", func(o *Options) { o.Library = lib }},
	} {
		opt := DefaultOptions()
		tc.mod(&opt)
		want, err := New(tbl, m, opt).Program(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, nest := range []bool{false, true} {
			caches := Caches{Seg: NewSegCache()}
			if nest {
				caches.Nest = NewNestCache()
			}
			if _, err := NewWithCaches(tbl, m, DefaultOptions(), caches).Program(p); err != nil {
				t.Fatal(err)
			}
			got, err := NewWithCaches(tbl, m, opt, caches).Program(p)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if got.Cost.String() != want.Cost.String() || got.OneTime.String() != want.OneTime.String() {
				t.Errorf("%s (nest cache %t): warm cache priced %s (one-time %s), a fresh one %s (one-time %s)",
					tc.name, nest, got.Cost, got.OneTime, want.Cost, want.OneTime)
			}
		}
	}
}

// TestSegCacheKeysOnSteadyState pins the reproduction from the bug
// report: the loop alone, priced with SteadyStateIters = 1 on a segment
// cache a default-options run has filled.
func TestSegCacheKeysOnSteadyState(t *testing.T) {
	m := machine.NewPOWER1()
	p, tbl := parseAnalyze(t, "program p\n  integer i, n\n  real x(100), y(100)"+declLoop)
	shared := NewSegCache()
	if _, err := NewWithCache(tbl, m, DefaultOptions(), shared).Program(p); err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.SteadyStateIters = 1
	got, err := NewWithCache(tbl, m, opt, shared).Program(p)
	if err != nil {
		t.Fatal(err)
	}
	if s := got.Cost.String(); s != "6·n + 3" {
		t.Errorf("SteadyStateIters=1 on a warm cache priced %s, want 6·n + 3", s)
	}
}

// TestOptionsFingerprintCoversEveryField walks Options by reflection,
// perturbs each leaf field in turn (descending into the Lower and
// Tetris structs) and requires the key to change, so a field added
// later without being mixed into optionsFingerprint fails here.
func TestOptionsFingerprintCoversEveryField(t *testing.T) {
	m := machine.NewPOWER1()
	base := DefaultOptions()
	baseFP := optionsFingerprint(m.Fingerprint(), base)
	var walk func(path string, typ reflect.Type, index []int)
	walk = func(path string, typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			idx := append(append([]int(nil), index...), i)
			name := path + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(name+".", f.Type, idx)
				continue
			}
			opt := base
			v := reflect.ValueOf(&opt).Elem().FieldByIndex(idx)
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Int:
				v.SetInt(v.Int() + 1)
			case reflect.Float64:
				v.SetFloat(v.Float() + 0.5)
			case reflect.Map:
				v.Set(reflect.ValueOf(LibraryTable{"foo": {Params: []string{"k"}, Cost: symexpr.NewVar("k")}}))
			default:
				t.Fatalf("%s: no perturbation for kind %s", name, v.Kind())
			}
			if optionsFingerprint(m.Fingerprint(), opt) == baseFP {
				t.Errorf("perturbing %s leaves the options fingerprint unchanged", name)
			}
		}
	}
	walk("", reflect.TypeOf(base), nil)
}
