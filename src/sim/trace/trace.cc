#include "sim/trace/trace.hh"

#include <cstring>

#include "util/error.hh"
#include "util/json.hh"

namespace mpos::sim::trace
{

/*
 * Binary trace layout (all integers little-endian):
 *
 *   header   "MPOSTRC1" (8)  version u32  flags u32  ring u64
 *   record*  u8 tag, then:
 *     0x01 event   44 bytes: kind u8, cpu u8, mode u8, os_op u8,
 *                  routine u16, pad u16, pid i32, cycle u64,
 *                  addr u64, a u64, b u64
 *     0x02 symbol  routine id u16, name length u16, name bytes
 *     0xff end     total_events u64, written_events u64
 *
 * flags bit 0 = ring mode (the file holds only the final ring
 * contents, the paper's read-the-buffer-after-the-run methodology).
 */

namespace
{

constexpr char traceMagic[8] = {'M', 'P', 'O', 'S', 'T', 'R', 'C', '1'};
constexpr uint32_t traceVersion = 1;
constexpr uint32_t flagRingMode = 1;

constexpr uint8_t tagEvent = 0x01;
constexpr uint8_t tagSymbol = 0x02;
constexpr uint8_t tagEnd = 0xff;

constexpr size_t eventBytes = 44;

/**
 * Symbol ids below this are addressable; 0xffff is the in-band
 * "no routine" sentinel and must never appear as a symbol record id.
 */
constexpr uint16_t maxRoutineSymbols = 0xffff;

void
put16(uint8_t *p, uint16_t v)
{
    p[0] = uint8_t(v);
    p[1] = uint8_t(v >> 8);
}

void
put32(uint8_t *p, uint32_t v)
{
    put16(p, uint16_t(v));
    put16(p + 2, uint16_t(v >> 16));
}

void
put64(uint8_t *p, uint64_t v)
{
    put32(p, uint32_t(v));
    put32(p + 4, uint32_t(v >> 32));
}

uint16_t
get16(const uint8_t *p)
{
    return uint16_t(p[0] | (uint16_t(p[1]) << 8));
}

uint32_t
get32(const uint8_t *p)
{
    return uint32_t(get16(p)) | (uint32_t(get16(p + 2)) << 16);
}

uint64_t
get64(const uint8_t *p)
{
    return uint64_t(get32(p)) | (uint64_t(get32(p + 4)) << 32);
}

void
packEvent(const TraceEvent &ev, uint8_t *buf)
{
    buf[0] = uint8_t(ev.kind);
    buf[1] = uint8_t(ev.cpu);
    buf[2] = uint8_t(ev.ctx.mode);
    buf[3] = uint8_t(ev.ctx.op);
    put16(buf + 4, ev.ctx.routine);
    put16(buf + 6, 0);
    put32(buf + 8, uint32_t(ev.ctx.pid));
    put64(buf + 12, ev.cycle);
    put64(buf + 20, ev.addr);
    put64(buf + 28, ev.a);
    put64(buf + 36, ev.b);
}

TraceEvent
unpackEvent(const uint8_t *buf)
{
    TraceEvent ev;
    ev.kind = TraceEventKind(buf[0]);
    ev.cpu = buf[1];
    ev.ctx.mode = ExecMode(buf[2]);
    ev.ctx.op = OsOp(buf[3]);
    ev.ctx.routine = get16(buf + 4);
    ev.ctx.pid = Pid(int32_t(get32(buf + 8)));
    ev.cycle = get64(buf + 12);
    ev.addr = get64(buf + 20);
    ev.a = get64(buf + 28);
    ev.b = get64(buf + 36);
    return ev;
}

} // namespace

const char *
traceEventKindName(TraceEventKind k)
{
    switch (k) {
      case TraceEventKind::Bus: return "bus";
      case TraceEventKind::Evict: return "evict";
      case TraceEventKind::InvalSharing: return "inval-sharing";
      case TraceEventKind::InvalPageRealloc: return "inval-realloc";
      case TraceEventKind::FlushPage: return "flush-page";
      case TraceEventKind::OsEnter: return "os-enter";
      case TraceEventKind::OsExit: return "os-exit";
      case TraceEventKind::ContextSwitch: return "context-switch";
    }
    return "?";
}

Tracer::Tracer(uint64_t ring_entries, const std::string &file_path,
               bool ring_mode)
    : events(ring_entries), path(file_path), ringMode(ring_mode)
{
    if (path.empty())
        return;
    file = std::fopen(path.c_str(), "wb");
    if (!file)
        util::raise(util::ErrCode::BadConfig,
                    "cannot open trace file '%s' for writing",
                    path.c_str());
    uint8_t hdr[24];
    std::memcpy(hdr, traceMagic, 8);
    put32(hdr + 8, traceVersion);
    put32(hdr + 12, ringMode ? flagRingMode : 0);
    put64(hdr + 16, events.capacity());
    std::fwrite(hdr, 1, sizeof hdr, file);
}

Tracer::~Tracer()
{
    finish();
}

void
Tracer::writeEvent(const TraceEvent &ev)
{
    uint8_t buf[1 + eventBytes];
    buf[0] = tagEvent;
    packEvent(ev, buf + 1);
    std::fwrite(buf, 1, sizeof buf, file);
}

void
Tracer::record(const TraceEvent &ev)
{
    events.push(ev);
    if (file && !ringMode)
        writeEvent(ev);
}

void
Tracer::finish()
{
    if (finished)
        return;
    finished = true;
    if (!file)
        return;
    if (ringMode) {
        for (uint64_t i = 0; i < events.size(); ++i)
            writeEvent(events.tail(i));
    }
    for (size_t r = 0; r < routineNames.size(); ++r) {
        const std::string &name = routineNames[r];
        const uint16_t len =
            uint16_t(name.size() < 0xffff ? name.size() : 0xffff);
        uint8_t buf[5];
        buf[0] = tagSymbol;
        put16(buf + 1, uint16_t(r));
        put16(buf + 3, len);
        std::fwrite(buf, 1, sizeof buf, file);
        std::fwrite(name.data(), 1, len, file);
    }
    uint8_t end[17];
    end[0] = tagEnd;
    put64(end + 1, events.total());
    put64(end + 9, ringMode ? events.size() : events.total());
    std::fwrite(end, 1, sizeof end, file);
    std::fclose(file);
    file = nullptr;
}

void
Tracer::busTransaction(const BusRecord &rec)
{
    lastCycle = rec.cycle;
    record({TraceEventKind::Bus, rec.cycle, rec.cpu, rec.lineAddr,
            uint64_t(rec.op), uint64_t(rec.cache), rec.ctx});
}

void
Tracer::evict(CpuId cpu, CacheKind kind, Addr line,
              const MonitorContext &by)
{
    record({TraceEventKind::Evict, lastCycle, cpu, line, uint64_t(kind),
            0, by});
}

void
Tracer::invalSharing(CpuId cpu, CacheKind kind, Addr line)
{
    record({TraceEventKind::InvalSharing, lastCycle, cpu, line,
            uint64_t(kind), 0, {}});
}

void
Tracer::invalPageRealloc(CpuId cpu, Addr line)
{
    record({TraceEventKind::InvalPageRealloc, lastCycle, cpu, line, 0,
            0, {}});
}

void
Tracer::flushPage(CpuId cpu, Addr page_addr, uint32_t page_bytes)
{
    record({TraceEventKind::FlushPage, lastCycle, cpu, page_addr,
            page_bytes, 0, {}});
}

void
Tracer::osEnter(Cycle cycle, CpuId cpu, OsOp op)
{
    lastCycle = cycle;
    record({TraceEventKind::OsEnter, cycle, cpu, 0, uint64_t(op), 0,
            {}});
}

void
Tracer::osExit(Cycle cycle, CpuId cpu, OsOp op)
{
    lastCycle = cycle;
    record({TraceEventKind::OsExit, cycle, cpu, 0, uint64_t(op), 0,
            {}});
}

void
Tracer::contextSwitch(Cycle cycle, CpuId cpu, Pid from, Pid to)
{
    lastCycle = cycle;
    record({TraceEventKind::ContextSwitch, cycle, cpu, 0,
            uint64_t(int64_t(from)), uint64_t(int64_t(to)), {}});
}

// ------------------------------------------------------------------ //
// JSONL conversion                                                   //
// ------------------------------------------------------------------ //

namespace
{

/**
 * MPOSTRC1 stream reader. The file is untrusted input: every length
 * and id is validated against what the format can legally hold, and a
 * malformed stream raises a typed SimError(TraceCorrupt) -- never a
 * crash, never an unbounded allocation. Symbol ids are u16 on the
 * wire, so the symbol table is inherently capped at 65536 entries and
 * a hostile id cannot drive a large resize; the explicit check below
 * rejects ids the writer can never emit (it numbers routines densely
 * from zero) to keep the table proportional to real content.
 */
struct TraceReader
{
    FILE *f = nullptr;

    ~TraceReader()
    {
        if (f)
            std::fclose(f);
    }

    [[noreturn]] static void
    fail(const char *what)
    {
        util::raise(util::ErrCode::TraceCorrupt, "trace: %s", what);
    }

    void
    readHeader(const std::string &path, uint32_t &flags, uint64_t &ring)
    {
        f = std::fopen(path.c_str(), "rb");
        if (!f)
            util::raise(util::ErrCode::BadConfig,
                        "cannot open trace file '%s'", path.c_str());
        uint8_t hdr[24];
        if (std::fread(hdr, 1, sizeof hdr, f) != sizeof hdr)
            fail("truncated trace header");
        if (std::memcmp(hdr, traceMagic, 8) != 0)
            fail("bad trace magic");
        if (get32(hdr + 8) != traceVersion)
            fail("unsupported trace version");
        flags = get32(hdr + 12);
        ring = get64(hdr + 16);
    }

    /**
     * Walk the record stream. Calls onEvent for each event, fills
     * symbols and end totals (either may be null to skip). Raises
     * TraceCorrupt on a malformed stream.
     */
    template <typename Fn>
    void
    scan(Fn &&onEvent, std::vector<std::string> *symbols,
         uint64_t *totalEvents)
    {
        uint64_t seenEvents = 0;
        for (;;) {
            int tag = std::fgetc(f);
            if (tag == EOF)
                fail("trace ends without end marker");
            if (tag == tagEvent) {
                uint8_t buf[eventBytes];
                if (std::fread(buf, 1, sizeof buf, f) != sizeof buf)
                    fail("truncated event record");
                ++seenEvents;
                onEvent(unpackEvent(buf));
            } else if (tag == tagSymbol) {
                uint8_t buf[4];
                if (std::fread(buf, 1, sizeof buf, f) != sizeof buf)
                    fail("truncated symbol record");
                const uint16_t id = get16(buf);
                const uint16_t len = get16(buf + 2);
                if (id >= maxRoutineSymbols)
                    fail("symbol id out of range");
                std::string name(len, '\0');
                if (len &&
                    std::fread(name.data(), 1, len, f) != len)
                    fail("truncated symbol name");
                if (symbols) {
                    if (symbols->size() <= id)
                        symbols->resize(size_t(id) + 1);
                    (*symbols)[id] = std::move(name);
                }
            } else if (tag == tagEnd) {
                uint8_t buf[16];
                if (std::fread(buf, 1, sizeof buf, f) != sizeof buf)
                    fail("truncated end marker");
                const uint64_t written = get64(buf + 8);
                if (written != seenEvents)
                    fail("end marker event count mismatch");
                if (totalEvents)
                    *totalEvents = get64(buf);
                if (std::fgetc(f) != EOF)
                    fail("trailing bytes after end marker");
                return;
            } else {
                fail("unknown record tag");
            }
        }
    }
};

void
emitEventJson(FILE *out, const TraceEvent &ev,
              const std::vector<std::string> &symbols)
{
    std::fprintf(out,
                 "{\"kind\":\"%s\",\"cycle\":%llu,\"cpu\":%u",
                 traceEventKindName(ev.kind),
                 (unsigned long long)ev.cycle, ev.cpu);
    switch (ev.kind) {
      case TraceEventKind::Bus:
        std::fprintf(out, ",\"line\":\"0x%llx\",\"op\":\"%s\","
                          "\"cache\":\"%s\"",
                     (unsigned long long)ev.addr, busOpName(BusOp(ev.a)),
                     CacheKind(ev.b) == CacheKind::Instr ? "I" : "D");
        break;
      case TraceEventKind::Evict:
      case TraceEventKind::InvalSharing:
        std::fprintf(out, ",\"line\":\"0x%llx\",\"cache\":\"%s\"",
                     (unsigned long long)ev.addr,
                     CacheKind(ev.a) == CacheKind::Instr ? "I" : "D");
        break;
      case TraceEventKind::InvalPageRealloc:
        std::fprintf(out, ",\"line\":\"0x%llx\"",
                     (unsigned long long)ev.addr);
        break;
      case TraceEventKind::FlushPage:
        std::fprintf(out, ",\"page\":\"0x%llx\",\"bytes\":%llu",
                     (unsigned long long)ev.addr,
                     (unsigned long long)ev.a);
        break;
      case TraceEventKind::OsEnter:
      case TraceEventKind::OsExit:
        std::fprintf(out, ",\"os_op\":\"%s\"", osOpName(OsOp(ev.a)));
        break;
      case TraceEventKind::ContextSwitch:
        std::fprintf(out, ",\"from\":%d,\"to\":%d",
                     int(int64_t(ev.a)), int(int64_t(ev.b)));
        break;
    }
    // The in-band context snapshot rides on bus records and evicts
    // (the kinds that carry one), mirroring the paper's per-record
    // CPU-state capture.
    if (ev.kind == TraceEventKind::Bus ||
        ev.kind == TraceEventKind::Evict) {
        std::fprintf(out, ",\"mode\":\"%s\",\"os_op\":\"%s\",\"pid\":%d",
                     execModeName(ev.ctx.mode), osOpName(ev.ctx.op),
                     int(ev.ctx.pid));
        if (ev.ctx.routine != 0xffff) {
            if (ev.ctx.routine < symbols.size() &&
                !symbols[ev.ctx.routine].empty()) {
                std::fprintf(
                    out, ",\"routine\":\"%s\"",
                    util::jsonEscape(symbols[ev.ctx.routine]).c_str());
            } else {
                std::fprintf(out, ",\"routine\":%u",
                             unsigned(ev.ctx.routine));
            }
        }
    }
    std::fputs("}\n", out);
}

} // namespace

bool
convertToJsonl(const std::string &trace_path,
               const std::string &jsonl_path, std::string *err)
{
    // Pass 1: collect the symbol table (it trails the events) and
    // validate the stream. Pass 2: emit one JSON object per event.
    // The reader raises typed SimErrors on hostile input; this
    // boundary keeps the historical bool+message interface for the
    // CLI wrapper.
    try {
        TraceReader reader;
        uint32_t flags = 0;
        uint64_t ring = 0;
        std::vector<std::string> symbols;
        uint64_t total = 0;
        reader.readHeader(trace_path, flags, ring);
        reader.scan([](const TraceEvent &) {}, &symbols, &total);

        TraceReader pass2;
        FILE *out = std::fopen(jsonl_path.c_str(), "w");
        if (!out) {
            if (err)
                *err = "cannot open JSONL output file";
            return false;
        }
        uint32_t f2 = 0;
        uint64_t r2 = 0;
        bool ok = false;
        try {
            pass2.readHeader(trace_path, f2, r2);
            pass2.scan(
                [&](const TraceEvent &ev) {
                    emitEventJson(out, ev, symbols);
                },
                nullptr, nullptr);
            ok = true;
        } catch (...) {
            std::fclose(out);
            throw;
        }
        std::fclose(out);
        return ok;
    } catch (const util::SimError &e) {
        if (err)
            *err = e.what();
        return false;
    }
}

} // namespace mpos::sim::trace
