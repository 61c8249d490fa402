package cfront

// This file defines the C AST produced by the parser: external
// declarations, statements and expressions, all carrying positions.

// File is one parsed translation unit.
type File struct {
	Name  string
	Decls []Decl
	// EnumConsts maps enumerator names seen in this unit to their values.
	EnumConsts map[string]int64
}

// StorageClass is the declaration storage class.
type StorageClass int

// Storage classes.
const (
	SCNone StorageClass = iota
	SCTypedef
	SCExtern
	SCStatic
	SCAuto
	SCRegister
)

func (s StorageClass) String() string {
	switch s {
	case SCNone:
		return ""
	case SCTypedef:
		return "typedef"
	case SCExtern:
		return "extern"
	case SCStatic:
		return "static"
	case SCAuto:
		return "auto"
	case SCRegister:
		return "register"
	default:
		return "storage?"
	}
}

// Decl is an external declaration.
type Decl interface {
	DeclPos() Pos
	isDecl()
}

// FuncDecl is a function definition or prototype (Body == nil).
type FuncDecl struct {
	Name    string
	Type    *Type // always TFunc
	Storage StorageClass
	Body    *Block // nil for a prototype
	Pos     Pos
}

// VarDecl is a global or local variable declaration.
type VarDecl struct {
	Name    string
	Type    *Type
	Storage StorageClass
	Init    Expr // may be nil
	Pos     Pos
}

// TypedefDecl records a typedef (also entered into the parser's table).
type TypedefDecl struct {
	Name string
	Type *Type
	Pos  Pos
}

// TagDecl is a standalone struct/union/enum definition.
type TagDecl struct {
	Type *Type
	Pos  Pos
}

// DeclPos returns the declaration's source position.
func (d *FuncDecl) DeclPos() Pos { return d.Pos }

// DeclPos returns the declaration's source position.
func (d *VarDecl) DeclPos() Pos { return d.Pos }

// DeclPos returns the declaration's source position.
func (d *TypedefDecl) DeclPos() Pos { return d.Pos }

// DeclPos returns the declaration's source position.
func (d *TagDecl) DeclPos() Pos { return d.Pos }

func (*FuncDecl) isDecl()    {}
func (*VarDecl) isDecl()     {}
func (*TypedefDecl) isDecl() {}
func (*TagDecl) isDecl()     {}

// Stmt is a statement.
type Stmt interface {
	StmtPos() Pos
	isStmt()
}

// Block is a compound statement.
type Block struct {
	Items []Stmt
	Pos   Pos
}

// DeclStmt wraps local declarations appearing in a block.
type DeclStmt struct {
	Decls []Decl // VarDecl or TypedefDecl or TagDecl
	Pos   Pos
}

// ExprStmt is an expression statement.
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ Pos Pos }

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
	Pos  Pos
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body Stmt
	Pos  Pos
}

// DoWhileStmt is a do/while loop.
type DoWhileStmt struct {
	Body Stmt
	Cond Expr
	Pos  Pos
}

// ForStmt is a for loop; any of Init/Cond/Post may be nil. Init may be a
// DeclStmt (C99 style) or an ExprStmt.
type ForStmt struct {
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
	Pos  Pos
}

// ReturnStmt returns from a function; Value may be nil.
type ReturnStmt struct {
	Value Expr
	Pos   Pos
}

// BreakStmt breaks a loop or switch.
type BreakStmt struct{ Pos Pos }

// ContinueStmt continues a loop.
type ContinueStmt struct{ Pos Pos }

// GotoStmt jumps to a label.
type GotoStmt struct {
	Label string
	Pos   Pos
}

// LabelStmt is a labelled statement.
type LabelStmt struct {
	Label string
	Stmt  Stmt
	Pos   Pos
}

// SwitchStmt is a switch; its body is typically a Block containing
// CaseStmt-labelled statements.
type SwitchStmt struct {
	Tag  Expr
	Body Stmt
	Pos  Pos
}

// CaseStmt is "case e:" or "default:" (Value nil) followed by a
// statement.
type CaseStmt struct {
	Value Expr // nil for default
	Stmt  Stmt
	Pos   Pos
}

// StmtPos returns the statement's source position.
func (s *Block) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *DeclStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *ExprStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *EmptyStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *IfStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *WhileStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *DoWhileStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *ForStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *ReturnStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *BreakStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *ContinueStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *GotoStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *LabelStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *SwitchStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *CaseStmt) StmtPos() Pos { return s.Pos }

func (*Block) isStmt()        {}
func (*DeclStmt) isStmt()     {}
func (*ExprStmt) isStmt()     {}
func (*EmptyStmt) isStmt()    {}
func (*IfStmt) isStmt()       {}
func (*WhileStmt) isStmt()    {}
func (*DoWhileStmt) isStmt()  {}
func (*ForStmt) isStmt()      {}
func (*ReturnStmt) isStmt()   {}
func (*BreakStmt) isStmt()    {}
func (*ContinueStmt) isStmt() {}
func (*GotoStmt) isStmt()     {}
func (*LabelStmt) isStmt()    {}
func (*SwitchStmt) isStmt()   {}
func (*CaseStmt) isStmt()     {}

// Expr is an expression.
type Expr interface {
	ExprPos() Pos
	isExpr()
}

// Ident is a name reference.
type Ident struct {
	Name string
	Pos  Pos
}

// IntLit is an integer constant (value unparsed; Text preserved).
type IntLit struct {
	Text string
	Val  int64
	Pos  Pos
}

// FloatLit is a floating constant.
type FloatLit struct {
	Text string
	Pos  Pos
}

// CharLit is a character constant.
type CharLit struct {
	Text string
	Pos  Pos
}

// StrLit is a string literal (adjacent literals concatenated).
type StrLit struct {
	Text string
	Pos  Pos
}

// UnaryOp enumerates prefix operators.
type UnaryOp int

// Unary operators.
const (
	UNeg   UnaryOp = iota // -
	UPlus                 // +
	UNot                  // !
	UBNot                 // ~
	UDeref                // *
	UAddr                 // &
	UPreInc
	UPreDec
)

var unaryNames = map[UnaryOp]string{
	UNeg: "-", UPlus: "+", UNot: "!", UBNot: "~", UDeref: "*", UAddr: "&",
	UPreInc: "++", UPreDec: "--",
}

func (op UnaryOp) String() string { return unaryNames[op] }

// Unary is a prefix operation.
type Unary struct {
	Op  UnaryOp
	X   Expr
	Pos Pos
}

// Postfix is x++ or x--.
type Postfix struct {
	Op  UnaryOp // UPreInc/UPreDec reused as the operator identity
	X   Expr
	Pos Pos
}

// BinaryOp enumerates infix operators (assignment separate).
type BinaryOp int

// Binary operators.
const (
	BMul BinaryOp = iota
	BDiv
	BMod
	BAdd
	BSub
	BShl
	BShr
	BLt
	BGt
	BLe
	BGe
	BEq
	BNe
	BAnd
	BXor
	BOr
	BLAnd
	BLOr
)

var binaryNames = map[BinaryOp]string{
	BMul: "*", BDiv: "/", BMod: "%", BAdd: "+", BSub: "-",
	BShl: "<<", BShr: ">>", BLt: "<", BGt: ">", BLe: "<=", BGe: ">=",
	BEq: "==", BNe: "!=", BAnd: "&", BXor: "^", BOr: "|",
	BLAnd: "&&", BLOr: "||",
}

func (op BinaryOp) String() string { return binaryNames[op] }

// Binary is an infix operation.
type Binary struct {
	Op   BinaryOp
	L, R Expr
	Pos  Pos
}

// AssignExpr is "lhs op= rhs"; Op is BinaryOp(-1) for plain assignment.
type AssignExpr struct {
	Op   BinaryOp // -1 for '='
	L, R Expr
	Pos  Pos
}

// PlainAssign marks AssignExpr.Op for simple '='.
const PlainAssign BinaryOp = -1

// Cond is the ternary operator.
type Cond struct {
	C, T, F Expr
	Pos     Pos
}

// Call is a function call.
type Call struct {
	Fn   Expr
	Args []Expr
	Pos  Pos
}

// Index is array subscripting a[i].
type Index struct {
	X, I Expr
	Pos  Pos
}

// Member is x.f or x->f.
type Member struct {
	X     Expr
	Name  string
	Arrow bool
	Pos   Pos
}

// Cast is an explicit cast (T)e.
type Cast struct {
	To  *Type
	X   Expr
	Pos Pos
}

// SizeofType is sizeof(T).
type SizeofType struct {
	T   *Type
	Pos Pos
}

// SizeofExpr is sizeof e.
type SizeofExpr struct {
	X   Expr
	Pos Pos
}

// Comma is the comma operator.
type Comma struct {
	L, R Expr
	Pos  Pos
}

// InitList is a braced initializer { e1, e2, … }.
type InitList struct {
	Items []Expr
	Pos   Pos
}

// ExprPos returns the expression's source position.
func (e *InitList) ExprPos() Pos { return e.Pos }

func (*InitList) isExpr() {}

// ExprPos returns the expression's source position.
func (e *Ident) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *IntLit) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *FloatLit) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *CharLit) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *StrLit) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Unary) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Postfix) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Binary) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *AssignExpr) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Cond) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Call) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Index) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Member) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Cast) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *SizeofType) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *SizeofExpr) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Comma) ExprPos() Pos { return e.Pos }

func (*Ident) isExpr()      {}
func (*IntLit) isExpr()     {}
func (*FloatLit) isExpr()   {}
func (*CharLit) isExpr()    {}
func (*StrLit) isExpr()     {}
func (*Unary) isExpr()      {}
func (*Postfix) isExpr()    {}
func (*Binary) isExpr()     {}
func (*AssignExpr) isExpr() {}
func (*Cond) isExpr()       {}
func (*Call) isExpr()       {}
func (*Index) isExpr()      {}
func (*Member) isExpr()     {}
func (*Cast) isExpr()       {}
func (*SizeofType) isExpr() {}
func (*SizeofExpr) isExpr() {}
func (*Comma) isExpr()      {}
