package wire

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"rollrec/internal/ids"
)

// These tests are the one check on the Kind table: the constant block in
// wire.go, its kindMax sentinel, KindCount and the String() names agree, and
// the running codec agrees with them. Each clause has the test that fails
// when it breaks:
//
//   - a kindMax sentinel closes the block: kindConsts, so every test below;
//   - every kind lies in [1, kindMax), values are distinct and contiguous:
//     TestKindValuesAreDense;
//   - KindCount == kindMax: TestKindCountMatchesConstants;
//   - every kind is named in String(): TestKindStringsCompleteAndUnique.

// kindConsts type-checks the Kind type and its constant block from wire.go
// on their own (they need no imports) and returns every constant's value by
// name, the kindMax sentinel's separately. Reading the source keeps the
// tests honest when a refactor forgets to update KindCount.
func kindConsts(t *testing.T) (kinds map[string]int64, kindMaxVal int64) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "wire.go", nil, 0)
	if err != nil {
		t.Fatalf("parsing wire.go: %v", err)
	}
	var decls []ast.Decl
	var names []*ast.Ident
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || len(gd.Specs) == 0 {
			continue
		}
		switch spec := gd.Specs[0].(type) {
		case *ast.TypeSpec:
			if spec.Name.Name == "Kind" {
				decls = append(decls, gd)
			}
		case *ast.ValueSpec:
			if id, ok := spec.Type.(*ast.Ident); ok && id.Name == "Kind" && gd.Tok == token.CONST {
				decls = append(decls, gd)
				for _, s := range gd.Specs {
					names = append(names, s.(*ast.ValueSpec).Names...)
				}
			}
		}
	}
	info := &types.Info{Defs: make(map[*ast.Ident]types.Object)}
	if _, err := new(types.Config).Check("wire", fset, []*ast.File{{Name: f.Name, Decls: decls}}, info); err != nil {
		t.Fatalf("type-checking the Kind block of wire.go: %v", err)
	}
	kinds = make(map[string]int64)
	for _, id := range names {
		if id.Name != "_" {
			kinds[id.Name], _ = constant.Int64Val(info.Defs[id].(*types.Const).Val())
		}
	}
	kindMaxVal, ok := kinds["kindMax"]
	if !ok {
		t.Fatal("wire.go's Kind block has no kindMax sentinel")
	}
	delete(kinds, "kindMax")
	return kinds, kindMaxVal
}

// TestKindCountMatchesConstants pins KindCount to the sentinel: kinds start
// at 1, so a block of n kinds implies KindCount == kindMax == n+1.
func TestKindCountMatchesConstants(t *testing.T) {
	kinds, kindMaxVal := kindConsts(t)
	if int64(KindCount) != kindMaxVal || KindCount != len(kinds)+1 {
		t.Fatalf("KindCount = %d, kindMax = %d, and wire.go declares %d kinds", KindCount, kindMaxVal, len(kinds))
	}
}

// TestKindValuesAreDense: every kind lies in [1, kindMax), where the codec
// accepts it and per-kind arrays can index it, and no two share a value, so
// the kinds fill the range with no gap.
func TestKindValuesAreDense(t *testing.T) {
	kinds, kindMaxVal := kindConsts(t)
	byValue := make(map[int64]string)
	for name, v := range kinds {
		if v < 1 || v >= kindMaxVal {
			t.Errorf("%s = %d lies outside [1, kindMax=%d)", name, v, kindMaxVal)
		} else if prev, dup := byValue[v]; dup {
			t.Errorf("%s and %s share the value %d", name, prev, v)
		}
		byValue[v] = name
	}
	if int64(len(byValue)) != kindMaxVal-1 {
		t.Errorf("%d distinct kind values, but kindMax = %d leaves room for %d", len(byValue), kindMaxVal, kindMaxVal-1)
	}
}

// TestKindStringsCompleteAndUnique walks every runtime kind value: each must
// render a real, distinct trace name, and the first value past the table
// must not.
func TestKindStringsCompleteAndUnique(t *testing.T) {
	seen := make(map[string]Kind, KindCount)
	for k := Kind(1); int(k) < KindCount; k++ {
		s := k.String()
		if s == "kind?" {
			t.Errorf("kind %d has no String() name", k)
			continue
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kind %d and %d share the name %q", prev, k, s)
		}
		seen[s] = k
	}
	if s := Kind(KindCount).String(); s != "kind?" {
		t.Errorf("Kind(KindCount) renders %q; the name table extends past kindMax", s)
	}
}

// TestEveryKindRoundTrips encodes and decodes an envelope of every kind,
// with representative optional fields, proving the codec accepts the whole
// vocabulary and that Size stays in lockstep with Encode.
func TestEveryKindRoundTrips(t *testing.T) {
	for k := Kind(1); int(k) < KindCount; k++ {
		e := &Envelope{
			Kind:    k,
			From:    1,
			To:      2,
			FromInc: 3,
			Dseq:    7,
			Ord:     ids.Ordinal{Clock: 5, Proc: 1},
		}
		frame := Encode(e)
		if len(frame) != Size(e) {
			t.Errorf("%v: Size = %d, encoded length = %d", k, Size(e), len(frame))
		}
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("%v: decode: %v", k, err)
		}
		if got.Kind != k {
			t.Fatalf("%v: decoded kind %v", k, got.Kind)
		}
		if !equalEnvelopes(e, got) {
			t.Fatalf("%v: round trip mismatch:\n in: %+v\nout: %+v", k, e, got)
		}
	}
	// One past the vocabulary must be rejected: the decoder's bounds check
	// is what keeps a frame's kind inside the per-kind arrays.
	bad := Encode(&Envelope{Kind: KindApp, From: 1, To: 2})
	bad[1] = byte(KindCount)
	if _, err := Decode(bad); err == nil {
		t.Fatal("Decode accepted kind == kindMax")
	}
}
