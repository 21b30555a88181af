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
 * Lower images [b0, b0 + nimg) of @p input into one
 * (C*K*K, OH*OW*nimg) column matrix in caller-owned storage (typically
 * a `Workspace` borrow), positions major and images minor: tap row r,
 * output position p = y*OW + x and image i land at
 * `cols[r * ld + p * nimg + i]`; nothing else is touched. At nimg = 1
 * that is the image's own matrix, as `im2col` returns it.
 *
 * The group is first staged, from the calling thread's workspace, into
 * a zero-padded (C, H+2*pad, W+2*pad, nimg) buffer with the images
 * innermost. A tap row is then OH copies of OW*nimg contiguous floats
 * at stride 1, and OH*OW copies of nimg floats at other strides: no
 * coordinate is bounds-tested.
 */
void im2col_group(const Tensor& input, int64_t b0, int64_t nimg,
                  const ConvGeometry& geom, float* cols, int64_t ld);

/**
 * Scatter-add a (C*K*K, R*C) column-gradient matrix back into an image
 * gradient (accumulates into @p grad_input at @p batch_index).
 */
void col2im_accumulate(const Tensor& cols, Tensor& grad_input,
                       int64_t batch_index, const ConvGeometry& geom);

/**
 * The adjoint of `im2col_group`: scatter-add a group's column
 * gradients, laid out as `im2col_group` writes them, into images
 * [b0, b0 + nimg) of @p grad_input. The group's gradient is staged
 * into the same padded, images-innermost buffer, the part of each tap
 * row that reads inside the map is added to it as contiguous runs,
 * and its interior is copied back.
 * Every `grad_input` element still adds its terms in ascending
 * (c, ky, kx, y, x) order, onto its own starting value.
 */
void col2im_accumulate(const float* cols, Tensor& grad_input, int64_t b0,
                       int64_t nimg, const ConvGeometry& geom,
                       int64_t ld);

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
