// Package cast defines the abstract syntax tree for MiniC, the C subset
// consumed by the predabs toolkit, together with its type representations
// and a source printer.
package cast

import (
	"fmt"
	"strings"
)

// Type is a MiniC type. MiniC has int, void, named struct types, pointers,
// and (logically modelled) arrays.
type Type interface {
	typ()
	String() string
}

// IntType is the MiniC int type (also used for boolean-valued expressions).
type IntType struct{}

// VoidType is the type of procedures with no return value.
type VoidType struct{}

// StructType is a nominal reference to a struct definition; fields are
// resolved through the enclosing Program.
type StructType struct{ Name string }

// PointerType is a pointer to Elem.
type PointerType struct{ Elem Type }

// ArrayType is an array of Elem. Len < 0 means unknown length. Under the
// paper's logical memory model an array denotes one abstract object.
type ArrayType struct {
	Elem Type
	Len  int
}

func (IntType) typ()     {}
func (VoidType) typ()    {}
func (StructType) typ()  {}
func (PointerType) typ() {}
func (ArrayType) typ()   {}

// String renders the type in C syntax.
func (IntType) String() string { return "int" }

// String renders the type in C syntax.
func (VoidType) String() string { return "void" }

// String renders the type in C syntax.
func (t StructType) String() string { return "struct " + t.Name }

// String renders the type in C syntax.
func (t PointerType) String() string {
	return t.Elem.String() + "*"
}

// String renders the type in C syntax.
func (t ArrayType) String() string {
	if t.Len < 0 {
		return t.Elem.String() + "[]"
	}
	return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
}

// TypesEqual reports structural equality of two MiniC types.
func TypesEqual(a, b Type) bool {
	switch a := a.(type) {
	case IntType:
		_, ok := b.(IntType)
		return ok
	case VoidType:
		_, ok := b.(VoidType)
		return ok
	case StructType:
		bb, ok := b.(StructType)
		return ok && a.Name == bb.Name
	case PointerType:
		bb, ok := b.(PointerType)
		return ok && TypesEqual(a.Elem, bb.Elem)
	case ArrayType:
		bb, ok := b.(ArrayType)
		return ok && TypesEqual(a.Elem, bb.Elem)
	}
	return false
}

// IsPointer reports whether t is a pointer type.
func IsPointer(t Type) bool {
	_, ok := t.(PointerType)
	return ok
}

// Deref returns the pointee type of a pointer (or array element type), and
// whether t was dereferenceable.
func Deref(t Type) (Type, bool) {
	switch t := t.(type) {
	case PointerType:
		return t.Elem, true
	case ArrayType:
		return t.Elem, true
	}
	return nil, false
}

// FieldDef is a named field inside a struct definition.
type FieldDef struct {
	Name string
	Type Type
}

// StructDef is a struct type definition.
type StructDef struct {
	Name   string
	Fields []FieldDef
}

// Field returns the definition of the named field, or nil.
func (s *StructDef) Field(name string) *FieldDef {
	for i := range s.Fields {
		if s.Fields[i].Name == name {
			return &s.Fields[i]
		}
	}
	return nil
}

// String renders the definition in C syntax.
func (s *StructDef) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "struct %s { ", s.Name)
	for _, f := range s.Fields {
		fmt.Fprintf(&b, "%s %s; ", f.Type, f.Name)
	}
	b.WriteString("}")
	return b.String()
}
