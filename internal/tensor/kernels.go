package tensor

import "fmt"

// This file holds the Into variants of the allocating element-wise and
// structural operations: each writes its result into caller-provided
// storage so hot paths (the autodiff arena, model serving) can recycle
// matrices instead of allocating per op.
//
// Aliasing rules: the element-wise kernels (AddInto, SubInto, MulInto,
// ScaleInto, AddRowInto) read each input element exactly once before
// writing the corresponding output element, so out may alias an input of
// the same shape (in-place update). The matmul and transpose kernels read
// inputs after writing outputs and therefore panic when out shares storage
// with an input.

// sameData reports whether two matrices share backing storage. The arena
// hands out whole allocations, so a full-overlap check is sufficient —
// partially overlapping views do not occur in this codebase.
func sameData(a, b *Matrix) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

func mustNotAlias(op string, out, a, b *Matrix) {
	if sameData(out, a) || sameData(out, b) {
		panic(fmt.Sprintf("tensor: %s out must not alias an input", op))
	}
}

func mustOutShape(op string, out, want *Matrix) {
	if !out.SameShape(want) {
		panic(fmt.Sprintf("tensor: %s out shape %dx%d, want %dx%d", op, out.Rows, out.Cols, want.Rows, want.Cols))
	}
}

// AddInto computes out = a+b elementwise. out may alias a or b.
func AddInto(out, a, b *Matrix) {
	mustSameShape("add", a, b)
	mustOutShape("add", out, a)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
}

// SubInto computes out = a−b elementwise. out may alias a or b.
func SubInto(out, a, b *Matrix) {
	mustSameShape("sub", a, b)
	mustOutShape("sub", out, a)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
}

// MulInto computes the Hadamard product out = a∘b. out may alias a or b.
func MulInto(out, a, b *Matrix) {
	mustSameShape("mul", a, b)
	mustOutShape("mul", out, a)
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
}

// ScaleInto computes out = s·m. out may alias m.
func ScaleInto(out, m *Matrix, s float64) {
	mustOutShape("scale", out, m)
	for i, v := range m.Data {
		out.Data[i] = v * s
	}
}

// AddRowInto computes out = m with the 1×cols row vector r added to every
// row. out may alias m.
func AddRowInto(out, m, r *Matrix) {
	if r.Rows != 1 || r.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: addRow wants 1x%d, got %dx%d", m.Cols, r.Rows, r.Cols))
	}
	mustOutShape("addRow", out, m)
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for j, v := range r.Data {
			dst[j] = src[j] + v
		}
	}
}

// TransposeInto computes out = mᵀ. out must not alias m.
func TransposeInto(out, m *Matrix) {
	if out.Rows != m.Cols || out.Cols != m.Rows {
		panic(fmt.Sprintf("tensor: transpose out shape %dx%d, want %dx%d", out.Rows, out.Cols, m.Cols, m.Rows))
	}
	if sameData(out, m) {
		panic("tensor: transpose out must not alias an input")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
}
