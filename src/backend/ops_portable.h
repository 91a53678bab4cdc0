// The portable backend: reference implementations of every registry op.
//
// These are the kernels the integer engine ran before the backend split,
// moved here verbatim so logits stay byte-identical. They are also the
// conformance oracle — every other backend is judged against this table
// (backend/conformance.h), so the portable op must be the simple, obviously
// correct form, never the clever one.
#pragma once

#include "backend/backend.h"

namespace adq::backend {

/// The complete portable op table. Always available; registered first so it
/// is the fallback of last resort and the conformance reference.
const Backend& portable_backend();

/// The eqn-1 grid a quantize_act observation of [lo, hi] encodes onto,
/// shared by every backend so the observation cannot drift between them.
/// A zero range end is folded to +0.0 first (see QuantizeActFn). For a
/// constant range (hi <= lo) q.a_scale, q.zero_code and inv stay 0.
struct ActGrid {
  ActQuant q;         // a_min is the folded lo
  float hi = 0.0f;    // the folded hi
  float inv = 0.0f;   // levels / (hi - lo): the encode's scale
};
ActGrid act_grid(float lo, float hi, int bits);

}  // namespace adq::backend
