package rules

import (
	"fmt"
	"strings"
)

// CmpOp is a comparison operator in the rule language.
type CmpOp int

// Comparison operators.
const (
	CmpLE CmpOp = iota
	CmpLT
	CmpGE
	CmpGT
	CmpEQ
	CmpNE
)

func (op CmpOp) String() string {
	return [...]string{"<=", "<", ">=", ">", "==", "!="}[op]
}

// flip returns the operator with its operands swapped (a op b ⟺ b flip(op) a).
func (op CmpOp) flip() CmpOp {
	switch op {
	case CmpLE:
		return CmpGE
	case CmpLT:
		return CmpGT
	case CmpGE:
		return CmpLE
	case CmpGT:
		return CmpLT
	}
	return op
}

// AggOp is an aggregate over a vector field.
type AggOp int

// Aggregates.
const (
	AggSum AggOp = iota
	AggMax
	AggMin
)

func (op AggOp) String() string {
	return [...]string{"sum", "max", "min"}[op]
}

// Expr is an arithmetic expression node.
type Expr interface {
	exprString(*strings.Builder)
	isExpr()
}

type (
	// NumLit is an integer literal or a folded constant.
	NumLit struct{ V int64 }
	// FieldRef references a field: scalar (Index == nil) or an indexed
	// vector element X[indexExpr].
	FieldRef struct {
		Name  string
		Index Expr
	}
	// VarRef references a quantifier loop variable.
	VarRef struct{ Name string }
	// AggRef is an aggregate over an entire vector field.
	AggRef struct {
		Op    AggOp
		Field string
	}
	// BinExpr is L op R for op in + - * /.
	BinExpr struct {
		Op   byte // '+', '-', '*', '/'
		L, R Expr
	}
	// NegExpr is -E.
	NegExpr struct{ E Expr }
	// CountExpr counts the elements of a vector field satisfying a
	// per-element comparison: count(Field Op Rhs). It evaluates to an
	// integer and, like max/min, may only appear as a whole comparison
	// side when compiled to SMT (expanded by subset enumeration).
	CountExpr struct {
		Field string
		Op    CmpOp
		Rhs   Expr
	}
)

func (*NumLit) isExpr()    {}
func (*FieldRef) isExpr()  {}
func (*VarRef) isExpr()    {}
func (*AggRef) isExpr()    {}
func (*BinExpr) isExpr()   {}
func (*NegExpr) isExpr()   {}
func (*CountExpr) isExpr() {}

// Node is a formula node in the rule language.
type Node interface {
	nodeString(*strings.Builder)
	isNode()
}

type (
	// CmpNode compares two expressions.
	CmpNode struct {
		Op   CmpOp
		L, R Expr
	}
	// AndNode is a conjunction.
	AndNode struct{ Kids []Node }
	// OrNode is a disjunction.
	OrNode struct{ Kids []Node }
	// NotNode is a negation.
	NotNode struct{ Kid Node }
	// ImpliesNode is antecedent -> consequent.
	ImpliesNode struct{ A, B Node }
	// QuantNode is forall/exists Var in Lo..Hi: Body.
	QuantNode struct {
		Forall bool
		Var    string
		Lo, Hi Expr
		Body   Node
	}
)

func (*CmpNode) isNode()     {}
func (*AndNode) isNode()     {}
func (*OrNode) isNode()      {}
func (*NotNode) isNode()     {}
func (*ImpliesNode) isNode() {}
func (*QuantNode) isNode()   {}

// Rule is one named rule.
type Rule struct {
	Name string
	Body Node
}

// String renders the rule in parseable DSL syntax.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString("rule ")
	b.WriteString(r.Name)
	b.WriteString(": ")
	r.Body.nodeString(&b)
	return b.String()
}

func (e *NumLit) exprString(b *strings.Builder) { fmt.Fprintf(b, "%d", e.V) }

func (e *FieldRef) exprString(b *strings.Builder) {
	b.WriteString(e.Name)
	if e.Index != nil {
		b.WriteString("[")
		e.Index.exprString(b)
		b.WriteString("]")
	}
}

func (e *VarRef) exprString(b *strings.Builder) { b.WriteString(e.Name) }

func (e *AggRef) exprString(b *strings.Builder) {
	fmt.Fprintf(b, "%s(%s)", e.Op, e.Field)
}

func (e *BinExpr) exprString(b *strings.Builder) {
	b.WriteString("(")
	e.L.exprString(b)
	fmt.Fprintf(b, " %c ", e.Op)
	e.R.exprString(b)
	b.WriteString(")")
}

func (e *CountExpr) exprString(b *strings.Builder) {
	fmt.Fprintf(b, "count(%s %s ", e.Field, e.Op)
	e.Rhs.exprString(b)
	b.WriteString(")")
}

func (e *NegExpr) exprString(b *strings.Builder) {
	b.WriteString("-")
	switch e.E.(type) {
	case *NumLit, *FieldRef, *VarRef, *AggRef:
		e.E.exprString(b)
	default:
		b.WriteString("(")
		e.E.exprString(b)
		b.WriteString(")")
	}
}

func (n *CmpNode) nodeString(b *strings.Builder) {
	n.L.exprString(b)
	fmt.Fprintf(b, " %s ", n.Op)
	n.R.exprString(b)
}

func (n *AndNode) nodeString(b *strings.Builder) {
	b.WriteString("(")
	for i, k := range n.Kids {
		if i > 0 {
			b.WriteString(" and ")
		}
		k.nodeString(b)
	}
	b.WriteString(")")
}

func (n *OrNode) nodeString(b *strings.Builder) {
	b.WriteString("(")
	for i, k := range n.Kids {
		if i > 0 {
			b.WriteString(" or ")
		}
		k.nodeString(b)
	}
	b.WriteString(")")
}

func (n *NotNode) nodeString(b *strings.Builder) {
	b.WriteString("not (")
	n.Kid.nodeString(b)
	b.WriteString(")")
}

func (n *ImpliesNode) nodeString(b *strings.Builder) {
	b.WriteString("(")
	n.A.nodeString(b)
	b.WriteString(" -> ")
	n.B.nodeString(b)
	b.WriteString(")")
}

// nodeString wraps the whole quantifier application in parentheses: the
// parser gives quantifier bodies greedy extent (they run to the next
// unmatched ')' or end of rule), so an unparenthesized rendering inside a
// disjunction would re-associate — and can even re-bind a sibling
// quantifier's variable into this body (see TestRenderParseEvalRoundTrip).
func (n *QuantNode) nodeString(b *strings.Builder) {
	if n.Forall {
		b.WriteString("(forall ")
	} else {
		b.WriteString("(exists ")
	}
	b.WriteString(n.Var)
	b.WriteString(" in ")
	n.Lo.exprString(b)
	b.WriteString("..")
	n.Hi.exprString(b)
	b.WriteString(": (")
	n.Body.nodeString(b)
	b.WriteString("))")
}

// ExprString renders an expression in DSL syntax.
func ExprString(e Expr) string {
	var b strings.Builder
	e.exprString(&b)
	return b.String()
}
