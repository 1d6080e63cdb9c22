package cublas

import (
	"fmt"

	"ipmgo/internal/gpusim"
)

// Thunking wrappers (paper Section IV-D): they preserve the plain BLAS
// calling convention for host data and hide all device interaction —
// allocate, cublasSetMatrix the operands, run the kernel, cublasGetMatrix
// the result, free. This is the convenient but purely blocking path whose
// transfer cost IPM exposes for PARATEC; the "direct" path is simply
// calling the BLAS interface with device pointers.
//
// They are package functions over the BLAS interface so that a monitored
// library handle (internal/ipmblas) sees every internal call.

// F64ToBytes converts host float64 data to its device byte representation.
func F64ToBytes(xs []float64) []byte {
	b := make([]byte, gpusim.F64Bytes(len(xs)))
	gpusim.Float64s(b).CopyIn(xs)
	return b
}

// BytesToF64 converts device bytes back to float64 host data.
func BytesToF64(b []byte, out []float64) { gpusim.Float64s(b).CopyOut(out) }

// C128ToBytes converts host complex128 data to its device byte
// representation; nil, a cost-only operand, stays nil.
func C128ToBytes(xs []complex128) []byte {
	if xs == nil {
		return nil
	}
	b := make([]byte, gpusim.C128Bytes(len(xs)))
	gpusim.Complex128s(b).CopyIn(xs)
	return b
}

// BytesToC128 converts device bytes back to complex128 host data.
func BytesToC128(b []byte, out []complex128) { gpusim.Complex128s(b).CopyOut(out) }

// DgemmThunk runs C = alpha*op(A)*op(B) + beta*C entirely from host
// buffers through the thunking path.
func DgemmThunk(h BLAS, ta, tb byte, m, n, k int, alpha float64, a []float64, lda int,
	b []float64, ldb int, beta float64, c []float64, ldc int) error {
	arows, brows := m, k
	if ta != 'N' {
		arows = k
	}
	if tb != 'N' {
		brows = n
	}
	acols, bcols := k, n
	if ta != 'N' {
		acols = m
	}
	if tb != 'N' {
		bcols = k
	}
	da, err := h.Alloc(arows*acols, 8)
	if err != nil {
		return fmt.Errorf("cublas: thunk alloc A: %w", err)
	}
	defer h.Free(da)
	db, err := h.Alloc(brows*bcols, 8)
	if err != nil {
		return fmt.Errorf("cublas: thunk alloc B: %w", err)
	}
	defer h.Free(db)
	dc, err := h.Alloc(m*n, 8)
	if err != nil {
		return fmt.Errorf("cublas: thunk alloc C: %w", err)
	}
	defer h.Free(dc)

	if err := h.SetMatrix(arows, acols, 8, F64ToBytes(a), lda, da, arows); err != nil {
		return err
	}
	if err := h.SetMatrix(brows, bcols, 8, F64ToBytes(b), ldb, db, brows); err != nil {
		return err
	}
	if err := h.SetMatrix(m, n, 8, F64ToBytes(c), ldc, dc, m); err != nil {
		return err
	}
	if err := h.Dgemm(ta, tb, m, n, k, alpha, da, arows, db, brows, beta, dc, m); err != nil {
		return err
	}
	out := make([]byte, gpusim.F64Bytes(m*n))
	if err := h.GetMatrix(m, n, 8, dc, m, out, ldc); err != nil {
		return err
	}
	BytesToF64(out, c)
	return nil
}

// ZgemmThunk is the double-complex thunking gemm, PARATEC's workhorse.
// Nil host operands make it a cost-only run: the same call sequence with
// payload-free transfers.
func ZgemmThunk(h BLAS, ta, tb byte, m, n, k int, alpha complex128, a []complex128, lda int,
	b []complex128, ldb int, beta complex128, c []complex128, ldc int) error {
	arows, brows := m, k
	if ta != 'N' {
		arows = k
	}
	if tb != 'N' {
		brows = n
	}
	acols, bcols := k, n
	if ta != 'N' {
		acols = m
	}
	if tb != 'N' {
		bcols = k
	}
	da, err := h.Alloc(arows*acols, 16)
	if err != nil {
		return fmt.Errorf("cublas: thunk alloc A: %w", err)
	}
	defer h.Free(da)
	db, err := h.Alloc(brows*bcols, 16)
	if err != nil {
		return fmt.Errorf("cublas: thunk alloc B: %w", err)
	}
	defer h.Free(db)
	dc, err := h.Alloc(m*n, 16)
	if err != nil {
		return fmt.Errorf("cublas: thunk alloc C: %w", err)
	}
	defer h.Free(dc)

	if err := h.SetMatrix(arows, acols, 16, C128ToBytes(a), lda, da, arows); err != nil {
		return err
	}
	if err := h.SetMatrix(brows, bcols, 16, C128ToBytes(b), ldb, db, brows); err != nil {
		return err
	}
	if err := h.SetMatrix(m, n, 16, C128ToBytes(c), ldc, dc, m); err != nil {
		return err
	}
	if err := h.Zgemm(ta, tb, m, n, k, alpha, da, arows, db, brows, beta, dc, m); err != nil {
		return err
	}
	if c == nil {
		return h.GetMatrix(m, n, 16, dc, m, nil, ldc)
	}
	out := make([]byte, gpusim.C128Bytes(m*n))
	if err := h.GetMatrix(m, n, 16, dc, m, out, ldc); err != nil {
		return err
	}
	BytesToC128(out, c)
	return nil
}
