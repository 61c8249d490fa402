package cfront

import "slices"

// Node slabs: the parser takes its most common nodes from typed chunks
// rather than allocating each on its own. A chunk lives as long as any
// node in it, and every node of a File shares the File's lifetime, so a
// slab keeps nothing alive that the tree does not.

// slab hands out T values from chunks of a []T. Each chunk is sized to
// the nodes the rest of the source is expected to need, so a small file
// wastes nothing and a large one takes a few chunks of at most maxChunk,
// each rounded up to fill the memory its allocation takes anyway.
type slab[T any] struct {
	chunk []T
	used  int // nodes handed out, over all chunks
}

// maxChunk caps a chunk's length, and so the unused tail a mistaken
// prediction can leave.
const maxChunk = 4096

// Prior source bytes per node of each slab kind, which size a kind's
// first chunk: the density of the hand-written C under
// internal/constinfer/testdata, rounded up to a power of two. Generated
// programs are about twice as dense (an identifier every ~15 bytes, a
// binary operator every ~48), so there a first chunk covers about half
// the file. A first chunk seldom holds more nodes than its file needs;
// later chunks follow the density seen so far.
const (
	identBytes    = 32
	intLitBytes   = 256
	binaryBytes   = 256
	assignBytes   = 256
	unaryBytes    = 512
	callBytes     = 256
	exprStmtBytes = 128
	returnBytes   = 512
	blockBytes    = 256
	typeBytes     = 32
)

// alloc returns a zeroed T. l is the lexer the parser reads: its offset
// and source length predict the chunk, from the prior of per source
// bytes per node before the first one, else from the nodes used so far.
func (s *slab[T]) alloc(l *Lexer, per int) *T {
	if len(s.chunk) == cap(s.chunk) {
		rest := len(l.src) - l.off
		want := rest / per
		if s.used > 0 && l.off > 0 {
			want = int(int64(s.used) * int64(rest) / int64(l.off))
		}
		s.chunk = slices.Grow([]T(nil), min(max(want, 1), maxChunk))
	}
	s.chunk = s.chunk[:len(s.chunk)+1]
	s.used++
	return &s.chunk[len(s.chunk)-1]
}

// slabs holds one slab per node kind the parser allocates most.
type slabs struct {
	idents    slab[Ident]
	intLits   slab[IntLit]
	binaries  slab[Binary]
	assigns   slab[AssignExpr]
	unaries   slab[Unary]
	calls     slab[Call]
	exprStmts slab[ExprStmt]
	returns   slab[ReturnStmt]
	blocks    slab[Block]
	types     slab[Type]
}

// popStack copies the top of a scratch stack, from base up, into an
// exactly sized slice (nil when empty) and pops it.
func popStack[T any](stack *[]T, base int) []T {
	s := *stack
	if len(s) == base {
		return nil
	}
	out := make([]T, len(s)-base)
	copy(out, s[base:])
	*stack = s[:base]
	return out
}
