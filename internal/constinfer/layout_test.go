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

// pointerWords counts the words of a t value that the garbage
// collector scans: one per pointer, string, slice, map, channel or
// func, two per interface.
func pointerWords(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return 1
	case reflect.Interface:
		return 2
	case reflect.Array:
		return t.Len() * pointerWords(t.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += pointerWords(t.Field(i).Type)
		}
		return n
	}
	return 0
}

// TestASTLayout pins the size of the records the C pipeline keeps live
// from parse to report. An AST position is an in-file line:col with no
// pointer (the file comes from cfront.File.Name), so the collector
// scans no position; the bounds hold the node and type sizes that
// follow from it, keep a C type record to its kind, spelling,
// qualifiers, element and one pointer to the parts only functions,
// arrays, structs and enums carry, keep RType free of write-only
// fields, keep the FDG's components free of pointers, and keep a
// classified position, of which a large run holds one per pointer level
// of every signature, to its names, numbers and qualifier variable.
func TestASTLayout(t *testing.T) {
	pos := reflect.TypeOf(cfront.Pos{})
	if hasPointers(pos) {
		t.Errorf("cfront.Pos holds pointers")
	}
	if size := pos.Size(); size != 8 {
		t.Errorf("cfront.Pos is %d bytes, want 8", size)
	}
	for _, c := range []struct {
		v        any
		max      uintptr
		pointers int
	}{
		{cfront.Ident{}, 24, 1},
		{cfront.Binary{}, 48, 4},
		{cfront.Type{}, 32, 2},
		{RType{}, 48, 3},
		{sccInfo{}, 40, 0},
		{PositionResult{}, 96, 3},
	} {
		typ := reflect.TypeOf(c.v)
		if size := typ.Size(); size > c.max {
			t.Errorf("%v is %d bytes, want at most %d", typ, size, c.max)
		}
		if n := pointerWords(typ); n > c.pointers {
			t.Errorf("%v holds %d pointer words, want at most %d", typ, n, c.pointers)
		}
	}
}
