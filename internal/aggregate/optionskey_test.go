package aggregate

import (
	"reflect"
	"testing"

	"perfpredict/internal/machine"
	"perfpredict/internal/symexpr"
)

// optionsProgram exercises every part of a pricing: a loop whose body
// fuses, hoists, promotes and overlaps, a data-dependent branch, and
// calls the library table can resolve, inside the loop (so the nest
// cache sees them) and after it.
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
    call foo(i)
  end do
  call foo(n)
end
`

// TestCachesKeyOnOptions is the aggregation-options regression test:
// a cache filled without a library table must not hand a caller with
// one the table-less price, through the segment cache alone or
// through the segment and nest caches together.
func TestCachesKeyOnOptions(t *testing.T) {
	m := machine.NewPOWER1()
	p, tbl := parseAnalyze(t, optionsProgram)
	opt := Options{Library: LibraryTable{"foo": {Params: []string{"k"}, Cost: symexpr.NewVar("k").Scale(7)}}}
	want, err := New(tbl, m, opt).Program(p)
	if err != nil {
		t.Fatal(err)
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
			t.Fatal(err)
		}
		if got.Cost.String() != want.Cost.String() || got.OneTime.String() != want.OneTime.String() {
			t.Errorf("nest cache %t: warm cache priced %s (one-time %s), a fresh one %s (one-time %s)",
				nest, got.Cost, got.OneTime, want.Cost, want.OneTime)
		}
	}
}

// TestOptionsFingerprintCoversEveryField walks Options by reflection,
// perturbs each field in turn and requires the key to change, so a
// field added later without being mixed into optionsFingerprint fails
// here.
func TestOptionsFingerprintCoversEveryField(t *testing.T) {
	m := machine.NewPOWER1()
	base := DefaultOptions()
	baseFP := optionsFingerprint(m.Fingerprint(), base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		opt := base
		v := reflect.ValueOf(&opt).Elem().Field(i)
		switch v.Kind() {
		case reflect.Map:
			v.Set(reflect.ValueOf(LibraryTable{"foo": {Params: []string{"k"}, Cost: symexpr.NewVar("k")}}))
		default:
			t.Fatalf("%s: no perturbation for kind %s", typ.Field(i).Name, v.Kind())
		}
		if optionsFingerprint(m.Fingerprint(), opt) == baseFP {
			t.Errorf("perturbing %s leaves the options fingerprint unchanged", typ.Field(i).Name)
		}
	}
}
