/**
 * @file
 * Wire codec implementation. See wire.h for the frame layout and the
 * defensive-decoding contract.
 */
#include "net/wire.h"

#include <limits>

#include "core/config.h"
#include "rns/rns.h"

namespace mqx {
namespace net {

namespace {

/** Bounds-checked little-endian reader over a fixed buffer. */
class Reader
{
  public:
    Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

    bool
    u8(uint8_t& v)
    {
        if (len_ - pos_ < 1)
            return false;
        v = data_[pos_];
        pos_ += 1;
        return true;
    }

    bool
    u16(uint16_t& v)
    {
        if (len_ - pos_ < 2)
            return false;
        v = static_cast<uint16_t>(data_[pos_]) |
            static_cast<uint16_t>(data_[pos_ + 1]) << 8;
        pos_ += 2;
        return true;
    }

    bool
    u32(uint32_t& v)
    {
        if (len_ - pos_ < 4)
            return false;
        v = loadU32(data_ + pos_);
        pos_ += 4;
        return true;
    }

    bool
    u64(uint64_t& v)
    {
        if (len_ - pos_ < 8)
            return false;
        v = static_cast<uint64_t>(loadU32(data_ + pos_)) |
            static_cast<uint64_t>(loadU32(data_ + pos_ + 4)) << 32;
        pos_ += 8;
        return true;
    }

    bool
    bytes(void* dst, size_t n)
    {
        if (len_ - pos_ < n)
            return false;
        std::memcpy(dst, data_ + pos_, n);
        pos_ += n;
        return true;
    }

    size_t remaining() const { return len_ - pos_; }

    static uint32_t
    loadU32(const uint8_t* p)
    {
        return static_cast<uint32_t>(p[0]) |
               static_cast<uint32_t>(p[1]) << 8 |
               static_cast<uint32_t>(p[2]) << 16 |
               static_cast<uint32_t>(p[3]) << 24;
    }

  private:
    const uint8_t* data_;
    size_t len_;
    size_t pos_ = 0;
};

/** Little-endian appender. */
class Writer
{
  public:
    explicit Writer(std::vector<uint8_t>& out) : out_(out) {}

    void u8(uint8_t v) { out_.push_back(v); }

    void
    u16(uint16_t v)
    {
        u8(static_cast<uint8_t>(v));
        u8(static_cast<uint8_t>(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        u16(static_cast<uint16_t>(v));
        u16(static_cast<uint16_t>(v >> 16));
    }

    void
    u64(uint64_t v)
    {
        u32(static_cast<uint32_t>(v));
        u32(static_cast<uint32_t>(v >> 32));
    }

    void
    bytes(const void* src, size_t n)
    {
        const uint8_t* p = static_cast<const uint8_t*>(src);
        out_.insert(out_.end(), p, p + n);
    }

    /** Grow the frame by @p n bytes and return where they start. */
    uint8_t*
    extend(size_t n)
    {
        const size_t at = out_.size();
        out_.resize(at + n);
        return out_.data() + at;
    }

    /** Little-endian store; compilers merge the shifts into one move. */
    static void
    storeU64(uint8_t* p, uint64_t v)
    {
        for (int b = 0; b < 8; ++b)
            p[b] = static_cast<uint8_t>(v >> (8 * b));
    }

  private:
    std::vector<uint8_t>& out_;
};

robust::Status
badFrame(const char* what)
{
    return robust::Status(robust::StatusCode::InvalidArgument,
                          std::string("wire: ") + what);
}

/** Each residue as (u64 lo, u64 hi), into one bulk extension. */
void
writeResidues(Writer& w, const ResidueVector& v)
{
    const DConstSpan s = v.span();
    uint8_t* p = w.extend(s.n * 16);
    for (size_t i = 0; i < s.n; ++i, p += 16) {
        Writer::storeU64(p, s.lo[i]);
        Writer::storeU64(p + 8, s.hi[i]);
    }
}

bool
readResidues(Reader& r, ResidueVector& v, uint32_t n)
{
    v.ensure(n);
    for (uint32_t i = 0; i < n; ++i) {
        uint64_t lo = 0, hi = 0;
        if (!r.u64(lo) || !r.u64(hi))
            return false;
        v.set(i, U128::fromParts(hi, lo));
    }
    return true;
}

/** Reject hostile shapes before any size multiplication. */
robust::Status
checkShape(const BasisSpec& basis, uint32_t n)
{
    if (n == 0 || n > kMaxN)
        return badFrame("n out of range");
    if (basis.channels == 0 || basis.channels > kMaxChannels)
        return badFrame("channel count out of range");
    if (basis.bits == 0 || basis.bits > 124)
        return badFrame("prime bits out of range");
    if (basis.two_adicity == 0 || basis.two_adicity > 64)
        return badFrame("two_adicity out of range");
    return robust::Status();
}

std::vector<uint8_t>
finishFrame(std::vector<uint8_t>&& frame)
{
    const uint64_t body = frame.size() - kHeaderBytes;
    checkArg(body <= kMaxBodyBytes, "wire: frame body exceeds cap");
    frame[4] = static_cast<uint8_t>(body);
    frame[5] = static_cast<uint8_t>(body >> 8);
    frame[6] = static_cast<uint8_t>(body >> 16);
    frame[7] = static_cast<uint8_t>(body >> 24);
    return std::move(frame);
}

void
beginFrame(Writer& w)
{
    w.u32(kFrameMagic);
    w.u32(0); // body_len patched by finishFrame
}

} // namespace

std::vector<uint8_t>
encodeRequestFrame(const Request& req)
{
    checkArg(req.basis.channels != 0 &&
                 req.operands.size() % req.basis.channels == 0,
             "wire: operands not a multiple of channel count");
    std::vector<uint8_t> frame;
    const size_t payload =
        req.operands.size() * static_cast<size_t>(req.n) * 16;
    frame.reserve(kHeaderBytes + 40 + payload);
    Writer w(frame);
    beginFrame(w);
    w.u8(static_cast<uint8_t>(MsgType::Request));
    w.u8(static_cast<uint8_t>(req.op));
    w.u16(kWireVersion);
    w.u64(req.request_id);
    w.u64(req.deadline_ns);
    w.u32(req.basis.bits);
    w.u32(req.basis.two_adicity);
    w.u32(req.basis.channels);
    w.u32(req.n);
    w.u32(static_cast<uint32_t>(req.operandCount()));
    for (const ResidueVector& v : req.operands) {
        checkArg(v.size() == req.n, "wire: operand length != n");
        writeResidues(w, v);
    }
    return finishFrame(std::move(frame));
}

std::vector<uint8_t>
encodeResponseFrame(const Response& resp)
{
    checkArg(resp.message.size() <= kMaxMessageBytes,
             "wire: response message exceeds cap");
    std::vector<uint8_t> frame;
    const size_t payload =
        resp.channels.size() * static_cast<size_t>(resp.n) * 16;
    frame.reserve(kHeaderBytes + 36 + resp.message.size() + payload);
    Writer w(frame);
    beginFrame(w);
    w.u8(static_cast<uint8_t>(MsgType::Response));
    w.u8(static_cast<uint8_t>(resp.code));
    w.u16(kWireVersion);
    w.u64(resp.request_id);
    w.u32(static_cast<uint32_t>(resp.message.size()));
    w.bytes(resp.message.data(), resp.message.size());
    w.u32(resp.basis.bits);
    w.u32(resp.basis.two_adicity);
    w.u32(resp.basis.channels);
    w.u32(resp.n);
    for (const ResidueVector& v : resp.channels) {
        checkArg(v.size() == resp.n, "wire: response channel length != n");
        writeResidues(w, v);
    }
    return finishFrame(std::move(frame));
}

robust::Status
decodeRequest(const uint8_t* body, size_t len, Request& out)
{
    Reader r(body, len);
    uint8_t msg_type = 0, op = 0;
    uint16_t version = 0;
    if (!r.u8(msg_type) || !r.u8(op) || !r.u16(version))
        return badFrame("truncated request header");
    if (msg_type != static_cast<uint8_t>(MsgType::Request))
        return badFrame("not a request frame");
    if (version != kWireVersion)
        return badFrame("unsupported wire version");
    if (op != static_cast<uint8_t>(OpKind::Polymul) &&
        op != static_cast<uint8_t>(OpKind::Fma) &&
        op != static_cast<uint8_t>(OpKind::Add))
        return badFrame("unknown op kind");
    out.op = static_cast<OpKind>(op);
    uint32_t operand_count = 0;
    if (!r.u64(out.request_id) || !r.u64(out.deadline_ns) ||
        !r.u32(out.basis.bits) || !r.u32(out.basis.two_adicity) ||
        !r.u32(out.basis.channels) || !r.u32(out.n) ||
        !r.u32(operand_count))
        return badFrame("truncated request header");
    robust::Status shape = checkShape(out.basis, out.n);
    if (!shape.ok())
        return shape;
    if (operand_count == 0 || operand_count > kMaxOperands)
        return badFrame("operand count out of range");
    if (out.op != OpKind::Fma && operand_count != 2)
        return badFrame("op requires exactly 2 operands");
    if (out.op == OpKind::Fma && operand_count % 2 != 0)
        return badFrame("fma requires operand pairs");
    // Caps hold, so this product is < 2^8 * 2^6 * 2^20 * 2^4 = 2^38:
    // no uint64 overflow is possible, and a lying body_len is caught
    // by the exact-length comparison rather than a wild read.
    const uint64_t vectors =
        static_cast<uint64_t>(operand_count) * out.basis.channels;
    const uint64_t payload = vectors * out.n * 16;
    if (r.remaining() != payload)
        return badFrame("payload length mismatch");
    out.operands.resize(static_cast<size_t>(vectors));
    for (ResidueVector& v : out.operands) {
        if (!readResidues(r, v, out.n))
            return badFrame("truncated payload");
    }
    if (r.remaining() != 0)
        return badFrame("trailing bytes after payload");
    return robust::Status();
}

robust::Status
decodeResponse(const uint8_t* body, size_t len, Response& out)
{
    Reader r(body, len);
    uint8_t msg_type = 0, code = 0;
    uint16_t version = 0;
    if (!r.u8(msg_type) || !r.u8(code) || !r.u16(version))
        return badFrame("truncated response header");
    if (msg_type != static_cast<uint8_t>(MsgType::Response))
        return badFrame("not a response frame");
    if (version != kWireVersion)
        return badFrame("unsupported wire version");
    if (code > static_cast<uint8_t>(robust::StatusCode::InvalidArgument))
        return badFrame("unknown status code");
    out.code = static_cast<robust::StatusCode>(code);
    uint32_t message_len = 0;
    if (!r.u64(out.request_id) || !r.u32(message_len))
        return badFrame("truncated response header");
    if (message_len > kMaxMessageBytes)
        return badFrame("message length out of range");
    out.message.resize(message_len);
    if (message_len != 0 && !r.bytes(&out.message[0], message_len))
        return badFrame("truncated message");
    if (!r.u32(out.basis.bits) || !r.u32(out.basis.two_adicity) ||
        !r.u32(out.basis.channels) || !r.u32(out.n))
        return badFrame("truncated response shape");
    out.channels.clear();
    if (out.basis.channels == 0 && out.n == 0) {
        if (r.remaining() != 0)
            return badFrame("trailing bytes after error response");
        return robust::Status();
    }
    robust::Status shape = checkShape(out.basis, out.n);
    if (!shape.ok())
        return shape;
    const uint64_t payload =
        static_cast<uint64_t>(out.basis.channels) * out.n * 16;
    if (r.remaining() != payload)
        return badFrame("payload length mismatch");
    out.channels.resize(out.basis.channels);
    for (ResidueVector& v : out.channels) {
        if (!readResidues(r, v, out.n))
            return badFrame("truncated payload");
    }
    return robust::Status();
}

robust::Status
validateResidues(const Request& req, const rns::RnsBasis& basis)
{
    const size_t k = req.basis.channels;
    for (size_t idx = 0; idx < req.operands.size(); ++idx) {
        const U128& q = basis.modulus(idx % k).value();
        const ResidueVector& v = req.operands[idx];
        for (size_t i = 0; i < v.size(); ++i) {
            if (!(v.at(i) < q))
                return robust::Status(
                    robust::StatusCode::InvalidArgument,
                    "wire: residue >= channel modulus");
        }
    }
    return robust::Status();
}

void
FrameReader::feed(const uint8_t* data, size_t len)
{
    if (poisoned_)
        return;
    // Compact consumed prefix before growing, so a long-lived session
    // does not accumulate every frame it ever parsed.
    if (pos_ > 0 && pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
    } else if (pos_ > 4096) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), data, data + len);
}

FrameReader::Next
FrameReader::next(std::vector<uint8_t>& body)
{
    if (poisoned_)
        return Next::Error;
    if (buf_.size() - pos_ < kHeaderBytes)
        return Next::NeedMore;
    const uint8_t* hdr = buf_.data() + pos_;
    const uint32_t magic = Reader::loadU32(hdr);
    const uint32_t body_len = Reader::loadU32(hdr + 4);
    if (magic != kFrameMagic) {
        poisoned_ = true;
        error_ = badFrame("bad frame magic");
        return Next::Error;
    }
    if (body_len > kMaxBodyBytes) {
        poisoned_ = true;
        error_ = badFrame("frame body exceeds cap");
        return Next::Error;
    }
    if (buf_.size() - pos_ < kHeaderBytes + body_len)
        return Next::NeedMore;
    body.assign(buf_.begin() +
                    static_cast<ptrdiff_t>(pos_ + kHeaderBytes),
                buf_.begin() +
                    static_cast<ptrdiff_t>(pos_ + kHeaderBytes + body_len));
    pos_ += kHeaderBytes + body_len;
    return Next::Frame;
}

} // namespace net
} // namespace mqx
