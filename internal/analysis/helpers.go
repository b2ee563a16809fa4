package analysis

import (
	"go/ast"
	"go/types"
)

// ModulePath is the import-path prefix of this repository's packages.
// Fixture stubs under testdata reuse it so analyzers match the same
// symbols in tests and in the real tree.
const ModulePath = "repro"

// calleeObj resolves the function or method object a call invokes, nil
// for indirect calls through function values or type conversions.
func calleeObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// methodInfo returns the receiver's named-type package path, type name
// and method name for a method call, or ok=false otherwise.
func methodInfo(info *types.Info, call *ast.CallExpr) (pkgPath, typeName, method string, ok bool) {
	f := calleeObj(info, call)
	if f == nil {
		return "", "", "", false
	}
	sig, okSig := f.Type().(*types.Signature)
	if !okSig || sig.Recv() == nil {
		return "", "", "", false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Pkg() == nil {
		return "", "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), f.Name(), true
}

// namedOf unwraps pointers and aliases down to a named type, nil when the
// type has no name (builtin, struct literal, ...).
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (through pointers) is pkgPath.typeName.
func isNamedType(t types.Type, pkgPath, typeName string) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == typeName
}

// funcNameAt returns the name of the innermost FuncDecl whose body spans
// the node n in file f: "Name" for functions, "Recv.Name" for methods.
func funcNameAt(f *ast.File, n ast.Node) string {
	var name string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Body.Pos() <= n.Pos() && n.Pos() <= fd.Body.End() {
			name = fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				name = recvTypeName(fd.Recv.List[0].Type) + "." + name
			}
		}
	}
	return name
}

func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}
