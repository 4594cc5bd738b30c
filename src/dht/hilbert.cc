#include "dht/hilbert.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sbon::dht {
namespace {

// Skilling's in-place conversion from axes to the "transpose" form, in which
// the Hilbert index bits are distributed across the words of X. Every select
// is a mask instead of a branch: the steering bits are the coordinate bits
// themselves, which are effectively random, so a branch per step would
// mispredict about half the time.
void AxesToTranspose(uint32_t* x, unsigned n, unsigned bits) {
  // Inverse undo. For each bit q = 2^b, x[i]'s bit q selects between
  // inverting the low bits of x[0] (set) and exchanging them with x[i]'s
  // (clear). For i = 0 the exchange term (x[0] ^ x[0]) is zero, so the
  // aliasing write is a no-op exactly as in the branching form.
  for (unsigned b = bits - 1; b > 0; --b) {
    const uint32_t p = (1u << b) - 1;
    for (unsigned i = 0; i < n; ++i) {
      const uint32_t set = 0u - ((x[i] >> b) & 1u);
      const uint32_t t = (x[0] ^ x[i]) & p & ~set;
      x[0] ^= (p & set) | t;
      x[i] ^= t;
    }
  }
  // Gray encode.
  for (unsigned i = 1; i < n; ++i) x[i] ^= x[i - 1];
  // t = XOR of (q - 1) over every bit q > 1 (q <= 2^(bits-1)) set in
  // x[n-1]: bit j of t is the parity of those bits above j, a suffix-parity
  // scan of five shift-xors.
  const uint32_t in_grid = (2u << (bits - 1)) - 1u;
  uint32_t t = (x[n - 1] & in_grid) >> 1;
  t ^= t >> 1;
  t ^= t >> 2;
  t ^= t >> 4;
  t ^= t >> 8;
  t ^= t >> 16;
  for (unsigned i = 0; i < n; ++i) x[i] ^= t;
}

// Inverse of AxesToTranspose.
void TransposeToAxes(std::vector<uint32_t>* x_ptr, unsigned bits) {
  std::vector<uint32_t>& x = *x_ptr;
  const unsigned n = static_cast<unsigned>(x.size());
  const uint32_t top = 2u << (bits - 1);
  // Gray decode by H ^ (H/2).
  uint32_t t = x[n - 1] >> 1;
  for (unsigned i = n - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work.
  for (uint32_t q = 2; q != top; q <<= 1) {
    const uint32_t p = q - 1;
    for (unsigned ii = n; ii-- > 0;) {
      if (x[ii] & q) {
        x[0] ^= p;
      } else {
        const uint32_t tt = (x[0] ^ x[ii]) & p;
        x[0] ^= tt;
        x[ii] ^= tt;
      }
    }
  }
}

}  // namespace

U128 HilbertEncodeInPlace(uint32_t* x, unsigned n, unsigned bits) {
  assert(n >= 1 && bits >= 1 && n * bits <= 128);
  AxesToTranspose(x, n, bits);
  // Interleave transpose words MSB-first: index bit (bits*n - 1) comes from
  // x[0]'s bit (bits-1), then x[1]'s bit (bits-1), ... Each bit shifts into
  // a (hi, lo) word pair; n * bits <= 128, so nothing shifts out.
  uint64_t hi = 0;
  uint64_t lo = 0;
  for (unsigned b = bits; b-- > 0;) {
    for (unsigned d = 0; d < n; ++d) {
      hi = (hi << 1) | (lo >> 63);
      lo = (lo << 1) | ((x[d] >> b) & 1u);
    }
  }
  return U128(hi, lo);
}

U128 HilbertEncode(const std::vector<uint32_t>& axes, unsigned bits) {
  const unsigned n = static_cast<unsigned>(axes.size());
  assert(n >= 1 && n <= 128);
  if (n > 128) {
    // Out of contract (dims * bits <= 128 bounds n at 128); stay
    // memory-safe under NDEBUG instead of overrunning the stack buffer.
    std::vector<uint32_t> x = axes;
    return HilbertEncodeInPlace(x.data(), n, bits);
  }
  uint32_t x[128];
  std::copy(axes.begin(), axes.end(), x);
  return HilbertEncodeInPlace(x, n, bits);
}

std::vector<uint32_t> HilbertDecode(U128 index, unsigned dims,
                                    unsigned bits) {
  assert(dims >= 1 && bits >= 1 && dims * bits <= 128);
  std::vector<uint32_t> x(dims, 0);
  unsigned in_bit = dims * bits;
  for (unsigned b = bits; b-- > 0;) {
    for (unsigned d = 0; d < dims; ++d) {
      --in_bit;
      if (index.Bit(in_bit)) x[d] |= (1u << b);
    }
  }
  TransposeToAxes(&x, bits);
  return x;
}

HilbertQuantizer::HilbertQuantizer(std::vector<double> lo,
                                   std::vector<double> hi, unsigned bits)
    : lo_(std::move(lo)), hi_(std::move(hi)), bits_(bits) {
  assert(lo_.size() == hi_.size());
  assert(!lo_.empty() && bits_ >= 1 && lo_.size() * bits_ <= 128);
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (hi_[i] <= lo_[i]) hi_[i] = lo_[i] + 1.0;  // degenerate dim guard
  }
}

HilbertQuantizer HilbertQuantizer::FitTo(const std::vector<Vec>& points,
                                         unsigned bits, double margin) {
  assert(!points.empty());
  const size_t dims = points[0].dims();
  std::vector<double> lo(dims, 1e300), hi(dims, -1e300);
  for (const Vec& p : points) {
    for (size_t d = 0; d < dims; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  for (size_t d = 0; d < dims; ++d) {
    const double span = std::max(hi[d] - lo[d], 1e-9);
    lo[d] -= margin * span;
    hi[d] += margin * span;
  }
  return HilbertQuantizer(std::move(lo), std::move(hi), bits);
}

void HilbertQuantizer::QuantizeTo(const Vec& p, uint32_t* out) const {
  assert(p.dims() == lo_.size());
  const double cells = static_cast<double>(1u << bits_);
  for (size_t d = 0; d < lo_.size(); ++d) {
    const double t = (p[d] - lo_[d]) / (hi_[d] - lo_[d]);
    const double cell = std::floor(t * cells);
    out[d] = static_cast<uint32_t>(
        std::clamp(cell, 0.0, cells - 1.0));
  }
}

std::vector<uint32_t> HilbertQuantizer::Quantize(const Vec& p) const {
  std::vector<uint32_t> out(lo_.size());
  QuantizeTo(p, out.data());
  return out;
}

Vec HilbertQuantizer::Dequantize(const std::vector<uint32_t>& cell) const {
  assert(cell.size() == lo_.size());
  const double cells = static_cast<double>(1u << bits_);
  Vec out(lo_.size());
  for (size_t d = 0; d < lo_.size(); ++d) {
    out[d] = lo_[d] + (static_cast<double>(cell[d]) + 0.5) / cells *
                          (hi_[d] - lo_[d]);
  }
  return out;
}

U128 HilbertQuantizer::Key(const Vec& p) const {
  // dims * bits <= 128 and bits >= 1 bound dims at 128 for any quantizer
  // the constructor accepts; the guard keeps an out-of-contract quantizer
  // memory-safe under NDEBUG (heap form instead of a stack overrun).
  if (dims() > 128) return HilbertEncode(Quantize(p), bits_);
  uint32_t cell[128];
  QuantizeTo(p, cell);
  return HilbertEncodeInPlace(cell, dims(), bits_);
}

}  // namespace sbon::dht
