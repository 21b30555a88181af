/**
 * @file
 * Tensor kernels: GEMM variants and the im2col/col2im lowering.
 *
 * The paper's Fig. 8 describes exactly this lowering — convolutions are
 * converted to matrix multiplication via im2col (step 1), filter
 * flattening (step 2), and GEMM (step 3) — so the substrate implements
 * the same scheme the GPU characterization models.
 *
 * The matmul* entry points dispatch to the blocked/packed kernels of
 * tensor/gemm.h (or the naive reference backend via INSITU_GEMM);
 * both are bit-identical across thread widths.
 */
#pragma once

#include "tensor/tensor.h"
#include "util/logging.h"

namespace insitu {

/** C = A(m,k) * B(k,n). */
Tensor matmul(const Tensor& a, const Tensor& b);

/** C = A^T(k,m) * B(k,n) — i.e. result is (m,n) with A stored (k,m). */
Tensor matmul_ta(const Tensor& a, const Tensor& b);

/** C = A(m,k) * B^T(n,k) — i.e. result is (m,n) with B stored (n,k). */
Tensor matmul_tb(const Tensor& a, const Tensor& b);

/** Geometry of a convolution / pooling window sweep. */
struct ConvGeometry {
    int64_t in_channels = 0;   ///< N in the paper's notation.
    int64_t in_h = 0;
    int64_t in_w = 0;
    int64_t kernel = 1;        ///< K (square kernels).
    int64_t stride = 1;
    int64_t pad = 0;

    /** Output rows R. A window taller than the padded map is fatal:
     *  the truncating division would otherwise report one row. */
    int64_t out_h() const
    {
        INSITU_CHECK(in_h + 2 * pad >= kernel,
                     "conv window wider than the padded map");
        return (in_h + 2 * pad - kernel) / stride + 1;
    }
    /** Output cols C; a window wider than the padded map is fatal. */
    int64_t out_w() const
    {
        INSITU_CHECK(in_w + 2 * pad >= kernel,
                     "conv window wider than the padded map");
        return (in_w + 2 * pad - kernel) / stride + 1;
    }
};

/**
 * Lower one image (C,H,W) region sweep to a (C*K*K, R*C) column matrix.
 *
 * @param input rank-4 batch (B,C,H,W).
 * @param batch_index which image in the batch to lower.
 * @param geom window geometry; geom.in_* must match @p input.
 */
Tensor im2col(const Tensor& input, int64_t batch_index,
              const ConvGeometry& geom);

/**
 * im2col into caller-owned storage (typically a `Workspace` borrow).
 * Row r of the image's (C*K*K, R*C) column matrix is written to
 * `cols[r * ld + col0 .. r * ld + col0 + R*C)`; nothing else is
 * touched. `ld = R*C, col0 = 0` is the image's own matrix; the conv
 * forward passes the group's row stride and the image's column offset
 * so a group of images lowers side by side into one (C*K*K, G*R*C)
 * matrix for a single GEMM.
 */
void im2col_into(const Tensor& input, int64_t batch_index,
                 const ConvGeometry& geom, float* cols, int64_t ld,
                 int64_t col0);

/**
 * Scatter-add a (C*K*K, R*C) column-gradient matrix back into an image
 * gradient (accumulates into @p grad_input at @p batch_index).
 */
void col2im_accumulate(const Tensor& cols, Tensor& grad_input,
                       int64_t batch_index, const ConvGeometry& geom);

/**
 * col2im from caller-owned column storage, laid out as im2col_into
 * writes it: the image's row r is `cols[r * ld + col0 ..]`, so the
 * conv backward scatters each image of a group straight from the
 * group's (C*K*K, G*R*C) column-gradient matrix.
 */
void col2im_accumulate(const float* cols, Tensor& grad_input,
                       int64_t batch_index, const ConvGeometry& geom,
                       int64_t ld, int64_t col0);

/**
 * Direct convolution forward (no im2col, no data duplication) — the
 * FPGA-style loop nest of the paper's Fig. 9, run serially. It is the
 * independent reference `Conv2d::forward` is tested against: the two
 * agree within float rounding, not bitwise, because they sum the
 * products in a different order, so the tests compare them at 1e-4.
 *
 * @param input (B, N, H, W) activations.
 * @param weight (M, N, K, K) filters.
 * @param bias (M) per-filter bias.
 * @param geom window geometry matching @p input.
 * @return (B, M, R, C) output feature maps.
 */
Tensor conv2d_direct(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const ConvGeometry& geom);

} // namespace insitu
