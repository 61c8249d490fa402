package constraint

import (
	"reflect"
	"runtime"
	"testing"
)

// hasPointers reports whether values of t hold any pointer the garbage
// collector would scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestConstraintStoreLayout pins the store's layout: records are
// pointer-free and at most 56 bytes, and filling the store allocates
// little more than its final size (no append re-copying, no per-
// constraint strings).
func TestConstraintStoreLayout(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Term{}), reflect.TypeOf(record{})} {
		if hasPointers(typ) {
			t.Errorf("%v holds pointers", typ)
		}
	}
	if size := reflect.TypeOf(Term{}).Size(); size > 16 {
		t.Errorf("Term is %d bytes, want at most 16", size)
	}
	recSize := reflect.TypeOf(record{}).Size()
	if recSize > 56 {
		t.Errorf("record is %d bytes, want at most 56", recSize)
	}

	const n = 100_000
	set := testSet(t)
	why := Reason{Pos: Pos{File: "store.c", Line: 1, Col: 1}, Msg: "flow"}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys := NewSystem(set)
	prev := sys.Fresh()
	for i := 0; i < n; i++ {
		v := sys.Fresh()
		sys.Add(V(prev), V(v), why)
		prev = v
	}
	runtime.ReadMemStats(&after)
	if sys.NumConstraints() != n {
		t.Fatalf("stored %d constraints, want %d", sys.NumConstraints(), n)
	}
	final := uint64(n) * uint64(recSize)
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.25*float64(final) {
		t.Errorf("adding %d constraints allocated %d bytes, want at most 1.25 × %d (the records' final size)", n, got, final)
	}
	if got := sys.At(n - 1); got.Why != why || got.L != V(Var(n-1)) || got.R != V(Var(n)) {
		t.Errorf("last constraint = %v (%v)", got, got.Why)
	}
}
