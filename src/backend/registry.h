// Backend registry: enumeration, lookup, and env-pinned selection.
//
// Registration order is ascending preference — portable first, then each
// SIMD tier — so "best available" is simply the last available entry. All
// backends stay listed even when the host cannot run them; error messages
// and the conformance harness want the full roster.
//
// Selection: ADQ_BACKEND=<name> pins a backend end to end. Unknown or unavailable names fail fast with the list of registered
// backends — a typo must never silently fall back to portable.
#pragma once

#include <vector>

#include "backend/backend.h"

namespace adq::backend {

/// Every registered backend, ascending preference order. The portable
/// reference is always index 0 and always available.
const std::vector<const Backend*>& all_backends();

/// The subset of all_backends() runnable on this host, same order.
std::vector<const Backend*> available_backends();

/// Registered backend by name, or nullptr if no such name.
const Backend* find_backend(const char* name);

/// Pure selection logic, exposed for tests: resolves the would-be active
/// backend from an explicit ADQ_BACKEND value (null = unset, which returns
/// the best available backend). Throws std::runtime_error naming the
/// offending value and listing every registered backend (with host
/// availability) for an unknown name or an unavailable backend.
const Backend& resolve_backends_env(const char* adq_backend);

/// The process-wide active backend: resolve_backends_env over the real
/// ADQ_BACKEND environment variable, resolved once on first call and
/// cached. Throws like resolve_backends_env on a bad pin — constructing an
/// engine therefore fails fast at startup instead of silently computing on
/// the wrong kernels.
const Backend& active();

/// TEST-ONLY: forces active() to return `backend` (pass nullptr to restore
/// the normal env-resolved table); returns the previous override. active()
/// latches its env resolve on first call, so cross-backend engine tests in
/// one process — the golden-logits matrix — need this hook. Production code
/// must never call it.
const Backend* exchange_backend_override(const Backend* backend);

}  // namespace adq::backend
