#include "infer/plan_io.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "tensor/bitpack.h"

namespace adq::infer {
namespace {

constexpr char kMagic[8] = {'A', 'D', 'Q', 'P', 'L', 'A', 'N', '\0'};

// Sanity ceiling for element counts parsed out of a file. Far above any
// real model, far below anything that can overflow the int64 arithmetic
// the engine does with these numbers.
constexpr std::int64_t kMaxElems = std::int64_t{1} << 40;

std::uint64_t fnv1a(const char* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 1099511628211ull;
  }
  return h;
}

[[noreturn]] void fail(const std::string& why) {
  throw std::runtime_error("adqplan: " + why);
}

// Overflow-guarded product for dimensions read from the file.
std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  if (a < 0 || b < 0 || (a != 0 && b > kMaxElems / a)) {
    fail("element count out of range");
  }
  return a * b;
}

// ---------------------------------------------------------------------------
// Payload writer: fixed-width little-endian scalars appended to a string.
// The in-memory representation on every supported target already is
// little-endian, so scalars are memcpy'd.
// ---------------------------------------------------------------------------

class Writer {
 public:
  template <typename T>
  void scalar(T v) {
    char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    out_.append(buf, sizeof(T));
  }

  void str(const std::string& s) {
    scalar<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }

  // Empty-array guards mirror the Reader's: data() of an empty vector is
  // null, and append/memcpy from null is UB even at length 0.
  void bytes(const std::uint8_t* p, std::size_t n) {
    scalar<std::uint64_t>(n);
    if (n != 0) out_.append(reinterpret_cast<const char*>(p), n);
  }

  void i32s(const std::vector<std::int32_t>& v) {
    scalar<std::uint64_t>(v.size());
    if (!v.empty()) {
      out_.append(reinterpret_cast<const char*>(v.data()),
                  v.size() * sizeof(std::int32_t));
    }
  }

  void f32s(const std::vector<float>& v) {
    scalar<std::uint64_t>(v.size());
    if (!v.empty()) {
      out_.append(reinterpret_cast<const char*>(v.data()),
                  v.size() * sizeof(float));
    }
  }

  void tensor(const Tensor& t) {
    scalar<std::uint32_t>(static_cast<std::uint32_t>(t.shape().rank()));
    for (int a = 0; a < t.shape().rank(); ++a) {
      scalar<std::int64_t>(t.shape().dim(a));
    }
    scalar<std::uint64_t>(static_cast<std::uint64_t>(t.numel()));
    out_.append(reinterpret_cast<const char*>(t.data()),
                static_cast<std::size_t>(t.numel()) * sizeof(float));
  }

  const std::string& payload() const { return out_; }

 private:
  std::string out_;
};

// ---------------------------------------------------------------------------
// Payload reader: bounds-checked cursor over the verified payload.
// ---------------------------------------------------------------------------

class Reader {
 public:
  Reader(const char* p, std::size_t n) : p_(p), n_(n) {}

  template <typename T>
  T scalar() {
    need(sizeof(T), "scalar");
    T v;
    std::memcpy(&v, p_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string str() {
    const auto n = scalar<std::uint32_t>();
    need(n, "string");
    std::string s(p_ + pos_, n);
    pos_ += n;
    return s;
  }

  // The n != 0 guards: float-path layers store empty code/sum arrays, and
  // an empty vector's data() is null — memcpy with a null source is UB
  // even at length 0 (UBSan flags it in the sanitizer CI jobs).
  std::vector<std::uint8_t> bytes() {
    const auto n = scalar<std::uint64_t>();
    need(n, "byte array");
    std::vector<std::uint8_t> v(n);
    if (n != 0) std::memcpy(v.data(), p_ + pos_, n);
    pos_ += n;
    return v;
  }

  std::vector<std::int32_t> i32s() {
    const auto n = count_of(sizeof(std::int32_t), "int32 array");
    std::vector<std::int32_t> v(n);
    if (n != 0) std::memcpy(v.data(), p_ + pos_, n * sizeof(std::int32_t));
    pos_ += n * sizeof(std::int32_t);
    return v;
  }

  std::vector<float> f32s() {
    const auto n = count_of(sizeof(float), "float array");
    std::vector<float> v(n);
    if (n != 0) std::memcpy(v.data(), p_ + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
    return v;
  }

  Tensor tensor() {
    const auto rank = scalar<std::uint32_t>();
    if (rank > static_cast<std::uint32_t>(Shape::kMaxRank)) {
      fail("tensor rank " + std::to_string(rank) + " exceeds maximum");
    }
    std::int64_t dims[Shape::kMaxRank] = {};
    std::int64_t numel = 1;
    for (std::uint32_t a = 0; a < rank; ++a) {
      dims[a] = scalar<std::int64_t>();
      if (dims[a] < 0) fail("negative tensor dimension");
      numel = checked_mul(numel, dims[a]);
    }
    const auto stored = scalar<std::uint64_t>();
    if (rank == 0 && stored == 0) return Tensor();  // default (empty) tensor
    if (stored != static_cast<std::uint64_t>(numel)) {
      fail("tensor element count disagrees with its shape");
    }
    if (stored > (n_ - pos_) / sizeof(float)) {
      fail("truncated payload while reading tensor data");
    }
    Shape shape;
    switch (rank) {
      case 0: break;
      case 1: shape = Shape{dims[0]}; break;
      case 2: shape = Shape{dims[0], dims[1]}; break;
      case 3: shape = Shape{dims[0], dims[1], dims[2]}; break;
      case 4: shape = Shape{dims[0], dims[1], dims[2], dims[3]}; break;
      case 5: shape = Shape{dims[0], dims[1], dims[2], dims[3], dims[4]}; break;
      default:
        shape = Shape{dims[0], dims[1], dims[2], dims[3], dims[4], dims[5]};
        break;
    }
    std::vector<float> data(stored);
    std::memcpy(data.data(), p_ + pos_, stored * sizeof(float));
    pos_ += stored * sizeof(float);
    return Tensor(shape, std::move(data));
  }

  bool exhausted() const { return pos_ == n_; }

 private:
  // Overflow-safe: n is compared against the REMAINING bytes, never added
  // to the cursor first.
  void need(std::uint64_t n, const char* what) {
    if (n > n_ - pos_) {
      fail(std::string("truncated payload while reading ") + what);
    }
  }

  // Reads an element count and verifies count * elem_size fits in the
  // remaining payload without the multiplication being able to wrap.
  std::uint64_t count_of(std::size_t elem_size, const char* what) {
    const auto n = scalar<std::uint64_t>();
    if (n > (n_ - pos_) / elem_size) {
      fail(std::string("truncated payload while reading ") + what);
    }
    return n;
  }

  const char* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

void write_layer(Writer& w, const GemmLayerPlan& l) {
  w.str(l.name);
  w.scalar<std::uint8_t>(l.is_conv ? 1 : 0);
  w.scalar<std::uint8_t>(l.is_depthwise ? 1 : 0);
  w.scalar<std::uint8_t>(l.path == ExecPath::kInteger ? 1 : 0);
  w.scalar<std::int64_t>(l.in_channels);
  w.scalar<std::int64_t>(l.out_channels);
  w.scalar<std::int64_t>(l.kernel);
  w.scalar<std::int64_t>(l.stride);
  w.scalar<std::int64_t>(l.pad);
  w.scalar<std::int32_t>(l.bits);
  w.scalar<std::uint8_t>(l.quantize_input ? 1 : 0);
  w.scalar<std::int32_t>(l.cell_bits);
  w.bytes(l.weight_codes.data(), l.weight_codes.size());
  w.scalar<float>(l.w_min);
  w.scalar<float>(l.w_scale);
  w.i32s(l.w_code_sums);
  w.tensor(l.weight_f);
  w.f32s(l.epi_scale);
  w.f32s(l.epi_shift);
  w.scalar<std::uint8_t>(l.relu ? 1 : 0);
  w.scalar<std::int64_t>(l.active_out);
}

GemmLayerPlan read_layer(Reader& r) {
  GemmLayerPlan l;
  l.name = r.str();
  l.is_conv = r.scalar<std::uint8_t>() != 0;
  l.is_depthwise = r.scalar<std::uint8_t>() != 0;
  const auto path = r.scalar<std::uint8_t>();
  if (path > 1) fail("invalid execution path tag");
  l.path = path == 1 ? ExecPath::kInteger : ExecPath::kFloat;
  l.in_channels = r.scalar<std::int64_t>();
  l.out_channels = r.scalar<std::int64_t>();
  l.kernel = r.scalar<std::int64_t>();
  l.stride = r.scalar<std::int64_t>();
  l.pad = r.scalar<std::int64_t>();
  l.bits = r.scalar<std::int32_t>();
  l.quantize_input = r.scalar<std::uint8_t>() != 0;
  l.cell_bits = r.scalar<std::int32_t>();
  if (l.cell_bits != 1 && l.cell_bits != 2 && l.cell_bits != 4 &&
      l.cell_bits != 8) {
    fail("invalid packed cell width " + std::to_string(l.cell_bits));
  }
  l.weight_codes = r.bytes();
  l.w_min = r.scalar<float>();
  l.w_scale = r.scalar<float>();
  l.w_code_sums = r.i32s();
  l.weight_f = r.tensor();
  l.epi_scale = r.f32s();
  l.epi_shift = r.f32s();
  l.relu = r.scalar<std::uint8_t>() != 0;
  l.active_out = r.scalar<std::int64_t>();

  // Cross-field validation: a checksum only proves the file arrived as
  // written, not that the writer was honest. Everything the engine sizes
  // buffers from must be internally consistent before it executes.
  if (l.in_channels < 1 || l.out_channels < 1 || l.kernel < 1 ||
      l.stride < 1 || l.pad < 0) {
    fail("invalid geometry in layer '" + l.name + "'");
  }
  if (l.bits < 1 || l.bits > 32) {
    fail("invalid bit-width in layer '" + l.name + "'");
  }
  // compile() clamps the integer path to <= 8 bits (codes must fit a
  // byte); a file claiming otherwise would silently wrap activation codes.
  if (l.path == ExecPath::kInteger && l.bits > 8) {
    fail("integer-path layer '" + l.name + "' claims " +
         std::to_string(l.bits) + " bits (max 8)");
  }
  if (l.is_depthwise && (!l.is_conv || l.in_channels != l.out_channels)) {
    fail("invalid depthwise geometry in layer '" + l.name + "'");
  }
  const std::int64_t inner =
      !l.is_conv ? l.in_channels
                 : (l.is_depthwise
                        ? checked_mul(l.kernel, l.kernel)
                        : checked_mul(l.in_channels,
                                      checked_mul(l.kernel, l.kernel)));
  const std::int64_t count = checked_mul(l.out_channels, inner);
  if (l.path == ExecPath::kInteger) {
    if (static_cast<std::int64_t>(l.weight_codes.size()) !=
        packed_bytes(count, l.cell_bits)) {
      fail("weight codes size disagrees with geometry in layer '" + l.name +
           "'");
    }
    if (static_cast<std::int64_t>(l.w_code_sums.size()) != l.out_channels) {
      fail("weight code sums size disagrees with geometry in layer '" +
           l.name + "'");
    }
  } else if (l.weight_f.numel() != count) {
    fail("float weights disagree with geometry in layer '" + l.name + "'");
  }
  if (static_cast<std::int64_t>(l.epi_scale.size()) != l.out_channels ||
      static_cast<std::int64_t>(l.epi_shift.size()) != l.out_channels) {
    fail("epilogue size disagrees with geometry in layer '" + l.name + "'");
  }
  if (l.active_out < 0 || l.active_out > l.out_channels) {
    fail("invalid active channel count in layer '" + l.name + "'");
  }
  return l;
}

void write_op(Writer& w, const OpPlan& op) {
  w.scalar<std::uint8_t>(static_cast<std::uint8_t>(op.kind));
  w.scalar<std::int32_t>(op.layer);
  w.scalar<std::int32_t>(op.skip_bits);
  w.scalar<std::int64_t>(op.pool_kernel);
  w.scalar<std::int64_t>(op.pool_stride);
  w.scalar<std::int64_t>(op.mask_channels);
  w.scalar<std::int64_t>(op.out_offset);
  w.scalar<std::int32_t>(op.out_act_bits);
  w.scalar<std::int32_t>(op.out_act_qbits);
}

OpPlan read_op(Reader& r, std::size_t layer_count, std::int64_t arena_bytes) {
  OpPlan op;
  const auto kind = r.scalar<std::uint8_t>();
  if (kind > static_cast<std::uint8_t>(OpKind::kQuantizeSkip)) {
    fail("invalid op kind tag " + std::to_string(kind));
  }
  op.kind = static_cast<OpKind>(kind);
  op.layer = r.scalar<std::int32_t>();
  op.skip_bits = r.scalar<std::int32_t>();
  op.pool_kernel = r.scalar<std::int64_t>();
  op.pool_stride = r.scalar<std::int64_t>();
  op.mask_channels = r.scalar<std::int64_t>();
  op.out_offset = r.scalar<std::int64_t>();
  if (op.kind == OpKind::kGemm || op.kind == OpKind::kSkipGemm) {
    if (op.layer < 0 || static_cast<std::size_t>(op.layer) >= layer_count) {
      fail("op references layer " + std::to_string(op.layer) +
           " outside the plan");
    }
  }
  if (op.kind == OpKind::kMaxPool &&
      (op.pool_kernel < 1 || op.pool_stride < 1)) {
    fail("invalid pool geometry");
  }
  // The push only aliases the fork; the skip quantizer is its own
  // kQuantizeSkip op.
  if (op.kind == OpKind::kPushSkip && op.skip_bits != 0) {
    fail("push-skip carries a skip bit-width");
  }
  if (op.kind == OpKind::kAddSkipRelu && op.mask_channels < -1) {
    fail("invalid residual mask");
  }
  if ((op.kind == OpKind::kQuantize || op.kind == OpKind::kQuantizeSkip) &&
      (op.skip_bits < 1 || op.skip_bits > 32)) {
    fail("invalid quantize bit-width");
  }
  // Slot offsets must land inside the declared arena on a 64-byte
  // boundary (the engine scales both by the batch size, which preserves
  // alignment only for aligned per-sample offsets).
  if (op.out_offset < -1) fail("invalid arena slot offset");
  if (op.out_offset >= 0 &&
      (op.out_offset % 64 != 0 || op.out_offset >= arena_bytes)) {
    fail("arena slot offset " + std::to_string(op.out_offset) +
         " outside the declared arena");
  }
  op.out_act_bits = r.scalar<std::int32_t>();
  op.out_act_qbits = r.scalar<std::int32_t>();
  if (op.out_act_bits != 0 && op.out_act_bits != 1 && op.out_act_bits != 2 &&
      op.out_act_bits != 4 && op.out_act_bits != 8) {
    fail("invalid packed activation cell width " +
         std::to_string(op.out_act_bits));
  }
  if (op.out_act_bits == 0) {
    if (op.out_act_qbits != 0) {
      fail("activation code grid declared without a packed cell width");
    }
  } else {
    if (op.out_offset < 0) {
      fail("packed activation op has no arena slot");
    }
    if (op.out_act_qbits < 0 || op.out_act_qbits > 8 ||
        (op.out_act_qbits > 0 &&
         cell_bits_for(op.out_act_qbits) > op.out_act_bits)) {
      fail("activation code grid does not fit its packed cell width");
    }
    // Only the skip or standalone quantize ops may self-code
    // (grid 0 — the consumer dequantizes on the op's own skip_bits grid);
    // every other packed op stores codes on a consumer GEMM's grid.
    if (op.out_act_qbits == 0 && op.kind != OpKind::kQuantize &&
        op.kind != OpKind::kQuantizeSkip) {
      fail("packed op is missing its consumer code grid");
    }
  }
  return op;
}

}  // namespace

void save_plan(const InferencePlan& plan, std::ostream& out) {
  Writer w;
  w.str(plan.model_name);
  w.scalar<std::int64_t>(plan.arena_bytes);
  w.scalar<std::int64_t>(plan.arena_bytes_u8);
  w.scalar<std::uint8_t>(static_cast<std::uint8_t>(plan.planned_input.rank));
  w.scalar<std::int64_t>(plan.planned_input.channels);
  w.scalar<std::int64_t>(plan.planned_input.height);
  w.scalar<std::int64_t>(plan.planned_input.width);
  w.scalar<std::uint32_t>(static_cast<std::uint32_t>(plan.layers.size()));
  for (const GemmLayerPlan& l : plan.layers) write_layer(w, l);
  w.scalar<std::uint32_t>(static_cast<std::uint32_t>(plan.ops.size()));
  for (const OpPlan& op : plan.ops) write_op(w, op);

  const std::string& payload = w.payload();
  out.write(kMagic, sizeof(kMagic));
  const std::uint32_t version = kPlanFormatVersion;
  const std::uint32_t flags = 0;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&flags), sizeof(flags));
  out.write(payload.data(),
            static_cast<std::streamsize>(payload.size()));
  const std::uint64_t checksum = fnv1a(payload.data(), payload.size());
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!out) fail("write failed");
}

void save_plan(const InferencePlan& plan, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot open '" + path + "' for writing");
  save_plan(plan, out);
  out.flush();
  if (!out) fail("write to '" + path + "' failed");
}

InferencePlan load_plan(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string blob = buf.str();

  constexpr std::size_t kHeaderSize = sizeof(kMagic) + 2 * sizeof(std::uint32_t);
  if (blob.size() < kHeaderSize + sizeof(std::uint64_t)) {
    fail("file too small to be an .adqplan");
  }
  if (std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    fail("bad magic — not an .adqplan file");
  }
  std::uint32_t version;
  std::memcpy(&version, blob.data() + sizeof(kMagic), sizeof(version));
  if (version != kPlanFormatVersion) {
    fail("unsupported format version " + std::to_string(version) +
         " (this build reads only " + std::to_string(kPlanFormatVersion) +
         "; recompile the plan)");
  }

  const char* payload = blob.data() + kHeaderSize;
  const std::size_t payload_size =
      blob.size() - kHeaderSize - sizeof(std::uint64_t);
  std::uint64_t stored_checksum;
  std::memcpy(&stored_checksum, blob.data() + blob.size() - sizeof(std::uint64_t),
              sizeof(stored_checksum));
  if (fnv1a(payload, payload_size) != stored_checksum) {
    fail("checksum mismatch — file is corrupt or truncated");
  }

  Reader r(payload, payload_size);
  InferencePlan plan;
  plan.model_name = r.str();
  plan.arena_bytes = r.scalar<std::int64_t>();
  plan.arena_bytes_u8 = r.scalar<std::int64_t>();
  plan.planned_input.rank = r.scalar<std::uint8_t>();
  plan.planned_input.channels = r.scalar<std::int64_t>();
  plan.planned_input.height = r.scalar<std::int64_t>();
  plan.planned_input.width = r.scalar<std::int64_t>();
  // The engine executes only out of the planned arena.
  if (plan.arena_bytes <= 0) {
    fail("plan '" + plan.model_name + "' has no memory plan (arena bytes " +
         std::to_string(plan.arena_bytes) + "); recompile the plan");
  }
  if (plan.arena_bytes > kMaxElems) fail("invalid arena size");
  if (plan.arena_bytes_u8 < 0 || plan.arena_bytes_u8 > kMaxElems) {
    fail("invalid float-baseline arena size");
  }
  if (plan.planned_input.rank != 1 && plan.planned_input.rank != 3) {
    fail("invalid planned input rank");
  }
  if (plan.planned_input.channels < 1 ||
      (plan.planned_input.rank == 3 &&
       (plan.planned_input.height < 1 || plan.planned_input.width < 1))) {
    fail("invalid planned input shape");
  }
  const auto layer_count = r.scalar<std::uint32_t>();
  plan.layers.reserve(layer_count);
  for (std::uint32_t i = 0; i < layer_count; ++i) {
    plan.layers.push_back(read_layer(r));
  }
  const auto op_count = r.scalar<std::uint32_t>();
  plan.ops.reserve(op_count);
  for (std::uint32_t i = 0; i < op_count; ++i) {
    plan.ops.push_back(read_op(r, plan.layers.size(), plan.arena_bytes));
  }
  if (!r.exhausted()) fail("trailing bytes after the op list");
  return plan;
}

InferencePlan load_plan(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open '" + path + "'");
  return load_plan(in);
}

std::uint64_t plan_fingerprint(const InferencePlan& plan) {
  std::ostringstream out;
  save_plan(plan, out);
  const std::string blob = out.str();
  return fnv1a(blob.data(), blob.size());
}

}  // namespace adq::infer
