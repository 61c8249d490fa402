package constinfer

import (
	"reflect"
	"testing"

	"repro/internal/cfront"
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

// TestASTLayout pins the size of the records the C pipeline keeps live
// from parse to report. An AST position is an in-file line:col with no
// pointer (the file comes from cfront.File.Name), so the collector
// scans no position; the bounds hold the node and type sizes that
// follow from it, and keep RType free of write-only fields.
func TestASTLayout(t *testing.T) {
	pos := reflect.TypeOf(cfront.Pos{})
	if hasPointers(pos) {
		t.Errorf("cfront.Pos holds pointers")
	}
	if size := pos.Size(); size != 8 {
		t.Errorf("cfront.Pos is %d bytes, want 8", size)
	}
	for _, c := range []struct {
		v   any
		max uintptr
	}{
		{cfront.Ident{}, 24},
		{cfront.Binary{}, 48},
		{cfront.Type{}, 144},
		{RType{}, 48},
	} {
		typ := reflect.TypeOf(c.v)
		if size := typ.Size(); size > c.max {
			t.Errorf("%v is %d bytes, want at most %d", typ, size, c.max)
		}
	}
}
