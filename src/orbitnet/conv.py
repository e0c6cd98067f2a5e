"""2-D cross-correlation with 'same' zero padding, and its adjoint.

The forward map is correlation at stride 1; padding is chosen so output
spatial size equals input size ((k-1)//2 before, k//2 after). The adjoint
is the exact transpose of the forward map, verified by the inner-product
identity <corr(x, w), y> == <x, adjoint(y, w)>.

Every kernel works in the tape's own [N, C, H, W] layout. Only the operand
with fewer channels is zero-padded and windowed; the wide one (the code
tensor, in the network) is read or written by exactly one batched GEMM,
never transposed, padded or copied. Two equivalent strategies keep the
k*k data duplication on the narrow side:
  * gather (im2col, Chellapilla et al. 2006): kh*kw slice copies of the
    padded input build cols[N, C*kh*kw, H*W], then one GEMM gives
    [N, O, H*W]. Used when the input has no more channels than the output.
  * scatter: one tap-major GEMM [kh*kw*O, C] @ [N, C, H*W] on the unpadded
    input, then kh*kw shifted adds into a narrow padded accumulator, which
    is cropped. Used when the output has fewer channels.
The kernel gradient windows the padded input when it is narrow, else the
padded output gradient. Nothing padded is kept from forward to backward.
"""

import numpy as np

from .tensor import Tensor


def _pad(x, top, left, kh, kw):
    """x [N,C,H,W] zero-padded for a kh x kw window: [N, C, H+kh-1, W+kw-1]."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + kh - 1, w + kw - 1), dtype=x.dtype)
    xp[:, :, top:top + h, left:left + w] = x
    return xp


def _cols(x, top, left, kh, kw):
    """im2col: cols[n, (c, u, v), (i, j)] = _pad(x, ...)[n, c, i + u, j + v]."""
    n, c, h, w = x.shape
    xp = _pad(x, top, left, kh, kw)
    cols = np.empty((n, c, kh, kw, h, w), dtype=x.dtype)
    for u, v in np.ndindex(kh, kw):
        cols[:, :, u, v] = xp[:, :, u:u + h, v:v + w]
    return cols.reshape(n, c * kh * kw, h * w)


def _corr(x, w, pt, pl):
    """Correlation of x [N,C,H,W], padded (pt, pl) before, with w [O,C,kh,kw]."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    if c <= o:
        cols = _cols(x, pt, pl, kh, kw)
        return np.matmul(w.reshape(o, -1), cols).reshape(n, o, h, wd)
    taps = w.transpose(2, 3, 0, 1).reshape(kh * kw * o, c)
    full = np.matmul(taps, x.reshape(n, c, h * wd)).reshape(n, kh, kw, o, h, wd)
    # input pixel (a, b) under tap (u, v) lands on output (a+pt-u, b+pl-v),
    # i.e. at (a+kh-1-u, b+kw-1-v) of an accumulator offset by (kh-1-pt, kw-1-pl)
    acc = np.zeros((n, o, h + kh - 1, wd + kw - 1), dtype=full.dtype)
    for u, v in np.ndindex(kh, kw):
        acc[:, :, kh - 1 - u:kh - 1 - u + h, kw - 1 - v:kw - 1 - v + wd] += \
            full[:, u, v]
    return np.ascontiguousarray(
        acc[:, :, kh - 1 - pt:kh - 1 - pt + h, kw - 1 - pl:kw - 1 - pl + wd])


def _corr_grad_w(x, g, pt, pl, kh, kw):
    """Gradient of _corr(x, w, pt, pl) w.r.t. the kernel [O, C, kh, kw]."""
    n, c, h, wd = x.shape
    o = g.shape[1]
    if c <= o:
        cols = _cols(x, pt, pl, kh, kw)
        gw = np.matmul(g.reshape(n, o, h * wd), cols.transpose(0, 2, 1))
        return gw.sum(axis=0).reshape(o, c, kh, kw)
    # tap (u, v) pairs x[a, b] with g[a+pt-u, b+pl-v]: g padded (kh-1-pt,
    # kw-1-pl) before and windowed at (kh-1-u, kw-1-v)
    gcols = _cols(g, kh - 1 - pt, kw - 1 - pl, kh, kw)
    gw = np.matmul(gcols, x.reshape(n, c, h * wd).transpose(0, 2, 1))
    gw = gw.sum(axis=0).reshape(o, kh, kw, c)[:, ::-1, ::-1]
    return np.ascontiguousarray(gw.transpose(0, 3, 1, 2))


def _check_shapes(x, c, kh, kw):
    """x [N,C,H,W] must have c channels and room for a kh x kw kernel."""
    if x.shape[1] != c:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]}, bank expects {c}")
    if kh > x.shape[2] or kw > x.shape[3]:
        raise ValueError(
            f"kernel {kh}x{kw} larger than input {x.shape[2]}x{x.shape[3]}")


def _swap_flip(w):
    return np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))


def conv2d_same(x, w):
    """Correlate x [N,C,H,W] with bank w [O,C,k,k] at stride 1, same size."""
    x = Tensor._lift(x)
    w = Tensor._lift(w)
    kh, kw = w.shape[2:]
    _check_shapes(x, w.shape[1], kh, kw)
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    y = _corr(x.data, w.data, pt, pl)

    def backward(g):
        if x.requires_grad:
            x._accumulate(_corr(g, _swap_flip(w.data),
                                kh - 1 - pt, kw - 1 - pl))
        if w.requires_grad:
            w._accumulate(_corr_grad_w(x.data, g, pt, pl, kh, kw))
    return Tensor._result(y, (x, w), backward)


def conv2d_adjoint(y, w):
    """Transpose of conv2d_same with the same bank: maps [N,O,H,W] -> [N,C,H,W]."""
    y = Tensor._lift(y)
    w = Tensor._lift(w)
    o, c, kh, kw = w.shape
    _check_shapes(y, o, kh, kw)
    pt, pl = kh // 2, kw // 2
    x = _corr(y.data, _swap_flip(w.data), pt, pl)

    def backward(g):
        if y.requires_grad:
            y._accumulate(_corr(g, w.data, kh - 1 - pt, kw - 1 - pl))
        if w.requires_grad:
            w._accumulate(_swap_flip(
                _corr_grad_w(y.data, g, pt, pl, kh, kw)))
    return Tensor._result(x, (y, w), backward)


def avg_pool_to(x, out_h, out_w):
    """Block-average x [N,C,H,W] down to [N,C,out_h,out_w]; extents must divide."""
    x = Tensor._lift(x)
    n, c, h, wd = x.shape
    if h % out_h or wd % out_w:
        raise ValueError(
            f"spatial size {h}x{wd} not divisible by pool target {out_h}x{out_w}")
    bh, bw = h // out_h, wd // out_w
    y = x.data.reshape(n, c, out_h, bh, out_w, bw).mean(axis=(3, 5))

    def backward(g):
        spread = np.broadcast_to(
            g[:, :, :, None, :, None] / (bh * bw),
            (n, c, out_h, bh, out_w, bw))
        x._accumulate(spread.reshape(n, c, h, wd))
    return Tensor._result(y, (x,), backward)
