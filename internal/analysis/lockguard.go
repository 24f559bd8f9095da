package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockguardPkgs are the packages with real shared-memory concurrency,
// matched by import-path suffix: the channel-based live network and
// the metrics registry.
var LockguardPkgs = []string{"internal/livenet", "internal/metrics"}

// Lockguard infers guarded fields and checks they stay guarded: a
// struct field written under an exclusive s.mu.Lock() anywhere in the
// package is taken to be protected by that mutex, and every other
// access to the same field — read or write, in any function — must also
// hold it (RLock suffices for the access side). This catches the races
// -race only sees when the schedule cooperates: the one unlocked read
// added months after the locked writer.
//
// Locked intervals are computed syntactically per function: a Lock/RLock
// call opens one, the matching Unlock/RUnlock closes it, and a deferred
// unlock holds to the end of the function. Interval matching is by
// (struct type, mutex field) plus the receiver variable when both sides
// resolve, so locking a.mu does not excuse touching b's fields.
var Lockguard = &Analyzer{
	Name:  "lockguard",
	Doc:   "a field written under a mutex anywhere must be accessed under that mutex everywhere",
	Scope: LockguardPkgs,
	Run:   runLockguard,
}

// lockKey identifies a mutex as "the field named mutexField of struct
// type structType" (empty mutexField means the mutex is embedded and
// locked through the struct itself).
type lockKey struct {
	structType *types.Named
	mutexField string
}

// lockedInterval is one source range during which a mutex is held.
type lockedInterval struct {
	key       lockKey
	rootObj   types.Object // receiver variable, nil if unresolvable
	pos, end  token.Pos
	exclusive bool // Lock, not RLock
}

func (iv *lockedInterval) covers(p token.Pos, root types.Object) bool {
	if p < iv.pos || p >= iv.end {
		return false
	}
	return root == nil || iv.rootObj == nil || root == iv.rootObj
}

// fieldKey identifies a struct field across the package.
type fieldKey struct {
	structType *types.Named
	field      string
}

func runLockguard(pass *Pass) {
	var intervals []*lockedInterval
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				intervals = append(intervals, collectLockIntervals(pass, fd.Body)...)
			}
		}
	}

	// Pass 1: guarded-field inference — fields written under an
	// exclusive lock on their own struct's mutex.
	guarded := make(map[fieldKey]lockKey)
	forEachFieldAccess(pass, func(sel *ast.SelectorExpr, fk fieldKey, root types.Object, write bool) {
		if !write {
			return
		}
		for _, iv := range intervals {
			if iv.exclusive && iv.key.structType == fk.structType && iv.covers(sel.Pos(), root) {
				guarded[fk] = iv.key
			}
		}
	})

	// Pass 2: every access to a guarded field must hold the mutex.
	forEachFieldAccess(pass, func(sel *ast.SelectorExpr, fk fieldKey, root types.Object, write bool) {
		key, ok := guarded[fk]
		if !ok {
			return
		}
		for _, iv := range intervals {
			if iv.key == key && iv.covers(sel.Pos(), root) {
				return
			}
		}
		mu := key.mutexField
		if mu == "" {
			mu = "the embedded mutex"
		}
		verb := "read"
		if write {
			verb = "written"
		}
		pass.Reportf(sel.Sel.Pos(), "%s.%s is %s without holding %s: the field is written under that lock elsewhere in this package, so every access must hold it", fk.structType.Obj().Name(), fk.field, verb, mu)
	})
}

// forEachFieldAccess visits every selector expression that reads or
// writes a field of a package-local named struct, skipping mutex-typed
// fields (the locks themselves) and selectors that only name a method.
func forEachFieldAccess(pass *Pass, visit func(sel *ast.SelectorExpr, fk fieldKey, root types.Object, write bool)) {
	for _, file := range pass.Files {
		writes := collectWrites(file)
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.Info.Uses[sel.Sel].(*types.Var)
			if !ok || !obj.IsField() || isMutexType(obj.Type()) {
				return true
			}
			named := receiverNamed(pass, sel.X)
			if named == nil || named.Obj().Pkg() != pass.Pkg {
				return true
			}
			// The field must actually belong to (or embed into) the
			// receiver's struct; selections through interfaces don't
			// reach here because obj is a field.
			fk := fieldKey{structType: named, field: obj.Name()}
			root := rootObjOf(pass, sel.X)
			visit(sel, fk, root, writes[sel])
			return true
		})
	}
}

// collectWrites marks the selector expressions a file writes through:
// assignment and range lvalues, inc/dec operands, and unary & (a taken
// address may be written through; treating it as a write keeps the
// inference conservative in the right direction).
func collectWrites(file *ast.File) map[ast.Expr]bool {
	writes := make(map[ast.Expr]bool)
	mark := func(e ast.Expr) {
		if e != nil {
			writes[ast.Unparen(e)] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		case *ast.RangeStmt:
			mark(x.Key)
			mark(x.Value)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				mark(x.X)
			}
		}
		return true
	})
	return writes
}

// collectLockIntervals walks one function body in source order pairing
// Lock/RLock calls with their Unlock/RUnlock (deferred unlocks hold to
// the end of the body). Unmatched locks also hold to the end.
func collectLockIntervals(pass *Pass, body *ast.BlockStmt) []*lockedInterval {
	var out []*lockedInterval
	var open []*lockedInterval
	handleCall := func(call *ast.CallExpr, deferred bool) {
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		switch fn.Name() {
		case "Lock", "RLock":
			key, root, ok := lockRecv(pass, sel.X)
			if !ok {
				return
			}
			iv := &lockedInterval{
				key:       key,
				rootObj:   root,
				pos:       call.End(),
				end:       body.End(), // until matched
				exclusive: fn.Name() == "Lock",
			}
			out = append(out, iv)
			open = append(open, iv)
		case "Unlock", "RUnlock":
			if deferred {
				return // holds to function end
			}
			key, root, ok := lockRecv(pass, sel.X)
			if !ok {
				return
			}
			for i := len(open) - 1; i >= 0; i-- {
				iv := open[i]
				if iv.key == key && iv.rootObj == root && iv.end == body.End() {
					iv.end = call.Pos()
					open = append(open[:i], open[i+1:]...)
					break
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			handleCall(x.Call, true)
			// Don't descend: the deferred unlock call must not be
			// re-seen as an immediate one.
			return false
		case *ast.CallExpr:
			handleCall(x, false)
		}
		return true
	})
	return out
}

// lockRecv resolves the receiver of a Lock/Unlock call — `s.mu` or `s`
// for an embedded mutex — to its lock key and root variable.
func lockRecv(pass *Pass, recv ast.Expr) (lockKey, types.Object, bool) {
	recv = ast.Unparen(recv)
	if sel, ok := recv.(*ast.SelectorExpr); ok {
		if fv, ok := pass.Info.Uses[sel.Sel].(*types.Var); ok && fv.IsField() && isMutexType(fv.Type()) {
			if named := receiverNamed(pass, sel.X); named != nil {
				return lockKey{structType: named, mutexField: fv.Name()}, rootObjOf(pass, sel.X), true
			}
		}
		return lockKey{}, nil, false
	}
	// Embedded mutex locked through the struct itself.
	if named := receiverNamed(pass, recv); named != nil {
		return lockKey{structType: named, mutexField: ""}, rootObjOf(pass, recv), true
	}
	return lockKey{}, nil, false
}

// receiverNamed resolves the static type of a receiver expression to
// its named struct type, looking through pointers.
func receiverNamed(pass *Pass, e ast.Expr) *types.Named {
	tv, ok := pass.Info.Types[ast.Unparen(e)]
	if !ok {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return nil
	}
	return named
}

// rootObjOf resolves the leftmost identifier of a receiver chain to its
// object (nil when the chain roots in a call or literal).
func rootObjOf(pass *Pass, e ast.Expr) types.Object {
	root := rootIdent(ast.Unparen(e))
	if root == nil {
		return nil
	}
	if obj := pass.Info.Uses[root]; obj != nil {
		return obj
	}
	return pass.Info.Defs[root]
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}
