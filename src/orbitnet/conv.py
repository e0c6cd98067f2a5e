"""2-D cross-correlation with 'same' zero padding, and its adjoint.

The forward map is correlation at stride 1; padding is chosen so output
spatial size equals input size ((k-1)//2 before, k//2 after). The adjoint
is the exact transpose of the forward map, verified by the inner-product
identity <corr(x, w), y> == <x, adjoint(y, w)>.

Every kernel works on one channel-major layout: the input is zero-padded
straight into a [C, N, Hp, Wp] buffer, so each kernel tap is a plain
slice of it and every contraction is a single GEMM. Two equivalent
evaluation strategies are picked per call to keep the k*k data
duplication on the side with fewer channels:
  * gather (im2col, Chellapilla et al. 2006): kh*kw slice copies build
    cols[C*kh*kw, N*H*W], then one GEMM. Used when the input has no more
    channels than the output.
  * scatter: one tap-major GEMM [kh*kw*O, C] @ [C, N*Hp*Wp], then kh*kw
    shifted slice adds. Used when the output has fewer channels.
The kernel gradient follows the same rule. Only the padded input is kept
from forward to backward; `cols` is rebuilt when needed.
"""

import numpy as np

from .tensor import Tensor


def _pad(x, pt, pl, kh, kw):
    """x [N,C,H,W] zero-padded for a kh x kw window, as [C, N, Hp, Wp]."""
    n, c, h, w = x.shape
    xp = np.zeros((c, n, h + kh - 1, w + kw - 1), dtype=x.dtype)
    xp[:, :, pt:pt + h, pl:pl + w] = x.transpose(1, 0, 2, 3)
    return xp


def _cols(xp, kh, kw, h, w):
    """im2col: cols[(c, u, v), (n, i, j)] = xp[c, n, i + u, j + v]."""
    c, n = xp.shape[:2]
    cols = np.empty((c, kh, kw, n, h, w), dtype=xp.dtype)
    for u in range(kh):
        for v in range(kw):
            cols[:, u, v] = xp[:, :, u:u + h, v:v + w]
    return cols.reshape(c * kh * kw, n * h * w)


def _corr(xp, w, h, wd):
    """Correlation of padded xp [C,N,Hp,Wp] with w [O,C,kh,kw]: [N,O,h,wd]."""
    c, n, hp, wp = xp.shape
    o, _, kh, kw = w.shape
    if c <= o:
        y = (w.reshape(o, -1) @ _cols(xp, kh, kw, h, wd)).reshape(o, n, h, wd)
    else:
        taps = w.transpose(2, 3, 0, 1).reshape(kh * kw * o, c)
        full = (taps @ xp.reshape(c, -1)).reshape(kh, kw, o, n, hp, wp)
        # y[o, n, i, j] = sum_{u,v} full[u, v, o, n, i+u, j+v]
        y = full[0, 0, :, :, :h, :wd].copy()
        for u in range(kh):
            for v in range(kw):
                if u or v:
                    y += full[u, v, :, :, u:u + h, v:v + wd]
    return np.ascontiguousarray(y.transpose(1, 0, 2, 3))


def _corr_grad_w(xp, g, kh, kw):
    """Gradient of _corr(xp, w) w.r.t. the kernel [O, C, kh, kw]."""
    c, n, hp, wp = xp.shape
    o, h, wd = g.shape[1:]
    gt = g.transpose(1, 0, 2, 3)
    if c <= o:
        gw = np.ascontiguousarray(gt).reshape(o, -1) @ \
            _cols(xp, kh, kw, h, wd).T
        return gw.reshape(o, c, kh, kw)
    # spread g over a tap-major buffer, then one GEMM against the input
    gfull = np.zeros((o, kh, kw, n, hp, wp), dtype=g.dtype)
    for u in range(kh):
        for v in range(kw):
            gfull[:, u, v, :, u:u + h, v:v + wd] = gt
    gw = gfull.reshape(o * kh * kw, -1) @ xp.reshape(c, -1).T
    return np.ascontiguousarray(gw.reshape(o, kh, kw, c).transpose(0, 3, 1, 2))


def _corr2d(x, w, pt, pl):
    """Same-size correlation of x [N,C,H,W] with w [O,C,kh,kw]."""
    kh, kw = w.shape[2:]
    return _corr(_pad(x, pt, pl, kh, kw), w, x.shape[2], x.shape[3])


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
    h, wd = x.shape[2:]
    kh, kw = w.shape[2:]
    _check_shapes(x, w.shape[1], kh, kw)
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    xp = _pad(x.data, pt, pl, kh, kw)
    y = _corr(xp, w.data, h, wd)

    def backward(g):
        if x.requires_grad:
            x._accumulate(_corr2d(g, _swap_flip(w.data),
                                  kh - 1 - pt, kw - 1 - pl))
        if w.requires_grad:
            w._accumulate(_corr_grad_w(xp, g, kh, kw))
    return Tensor._result(y, (x, w), backward)


def conv2d_adjoint(y, w):
    """Transpose of conv2d_same with the same bank: maps [N,O,H,W] -> [N,C,H,W]."""
    y = Tensor._lift(y)
    w = Tensor._lift(w)
    o, c, kh, kw = w.shape
    _check_shapes(y, o, kh, kw)
    h, wd = y.shape[2:]
    pt, pl = kh // 2, kw // 2
    yp = _pad(y.data, pt, pl, kh, kw)
    x = _corr(yp, _swap_flip(w.data), h, wd)

    def backward(g):
        if y.requires_grad:
            y._accumulate(_corr2d(g, w.data, kh - 1 - pt, kw - 1 - pl))
        if w.requires_grad:
            w._accumulate(_swap_flip(_corr_grad_w(yp, g, kh, kw)))
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
