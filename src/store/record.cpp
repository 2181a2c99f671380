#include "store/record.hpp"

#include <cstdio>
#include <cstring>

#include "petri/astg_io.hpp"
#include "util/hash.hpp"

namespace asynth::store {

namespace {

const char* impl_kind_name(impl_kind k) {
    switch (k) {
        case impl_kind::constant: return "constant";
        case impl_kind::wire: return "wire";
        case impl_kind::inverter: return "inverter";
        case impl_kind::complex_gate: return "complex";
        case impl_kind::gc_element: return "gc";
    }
    return "?";
}

void emit_size(std::string& out, const char* key, std::size_t v) {
    out += key;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
}

void emit_bool(std::string& out, const char* key, bool v) {
    out += key;
    out += v ? " 1\n" : " 0\n";
}

void emit_double(std::string& out, const char* key, double v) {
    char buf[48];
    // %.17g round-trips every finite double, so hit records reproduce the
    // producing run's numbers exactly.
    std::snprintf(buf, sizeof buf, "%s %.17g\n", key, v);
    out += buf;
}

/// Length-prefixed string block: `key <nbytes>\n<raw bytes>\n`.  No escaping
/// needed, so messages/equations/astg text can contain anything.
void emit_str(std::string& out, const char* key, const std::string& v) {
    out += key;
    out += ' ';
    out += std::to_string(v.size());
    out += '\n';
    out += v;
    out += '\n';
}

/// Line-oriented payload reader with explicit bounds checks everywhere; every
/// helper reports failure instead of reading past the end.
struct reader {
    std::string_view text;
    std::size_t pos = 0;
    bool failed = false;

    [[nodiscard]] bool done() const { return pos >= text.size(); }

    /// Next line without its '\n' (the payload always ends in one).
    std::string_view line() {
        const auto nl = text.find('\n', pos);
        if (nl == std::string_view::npos) {
            failed = true;
            return {};
        }
        auto out = text.substr(pos, nl - pos);
        pos = nl + 1;
        return out;
    }

    /// Exactly @p n raw bytes followed by '\n'.
    std::string_view raw(std::size_t n) {
        if (n > text.size() - pos || text.size() - pos - n < 1 || text[pos + n] != '\n') {
            failed = true;
            return {};
        }
        auto out = text.substr(pos, n);
        pos += n + 1;
        return out;
    }
};

[[nodiscard]] bool parse_u64(std::string_view s, uint64_t& out) {
    if (s.empty() || s.size() > 20) return false;
    out = 0;
    for (char c : s) {
        if (c < '0' || c > '9') return false;
        out = out * 10 + static_cast<uint64_t>(c - '0');
    }
    return true;
}

[[nodiscard]] bool parse_f64(std::string_view s, double& out) {
    char buf[64];
    if (s.empty() || s.size() >= sizeof buf) return false;
    std::memcpy(buf, s.data(), s.size());
    buf[s.size()] = '\0';
    char* end = nullptr;
    out = std::strtod(buf, &end);
    return end == buf + s.size();
}

/// The stage named @p name, or nullopt for a name this build does not know.
[[nodiscard]] std::optional<pipeline_stage> stage_of(std::string_view name) {
    for (uint8_t si = 0; si <= static_cast<uint8_t>(pipeline_stage_last); ++si)
        if (name == stage_name(static_cast<pipeline_stage>(si)))
            return static_cast<pipeline_stage>(si);
    return std::nullopt;
}

[[nodiscard]] std::string hex32(const hash128& h) {
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(h.hi),
                  static_cast<unsigned long long>(h.lo));
    return buf;
}

}  // namespace

result_summary summarize(const pipeline_result& r) {
    result_summary out;
    out.completed = r.completed;
    out.synthesized = r.synthesized();
    out.csc_solved = r.csc.solved;
    if (r.failed) out.failed_stage = stage_name(*r.failed);
    if (!r.completed)
        out.message = r.message;
    else if (!r.csc.solved)
        out.message = r.csc.message;
    if (r.base_sg) {
        out.states = r.base_sg->state_count();
        out.arcs = r.base_sg->arc_count();
        out.signals = r.base_sg->signals().size();
    }
    out.explored = r.search.explored;
    out.csc_signals = r.csc.signals_inserted;
    out.literals = r.reduced_cost.literals;
    out.initial_cost = r.initial_cost.value;
    out.reduced_cost = r.reduced_cost.value;
    out.area = r.area();
    out.cycle = r.cycle();
    out.seconds = r.total_seconds;
    out.timings = r.timings;
    out.impl_checked = r.impl_check.ok;
    out.impl_states = r.impl_check.states_visited;
    return out;
}

stored_record record_of(const pipeline_result& r, std::string fingerprint) {
    stored_record rec{summarize(r), std::move(fingerprint), /*netlist=*/{},
                      r.recovered.ok ? write_astg(r.recovered.net) : std::string(), r.verilog,
                      r.cmodel};
    if (r.synth.ok) {
        const auto& sigs = r.csc.graph.signals();
        for (const auto& impl : r.synth.ckt.impls)
            rec.netlist.push_back({impl.signal < sigs.size() ? sigs[impl.signal].name
                                                             : std::to_string(impl.signal),
                                   impl_kind_name(impl.kind), impl.area, impl.equation});
    }
    return rec;
}

std::string serialize_record(const stored_record& rec) {
    std::string p;
    emit_str(p, "fingerprint", rec.fingerprint);
    emit_bool(p, "completed", rec.completed);
    emit_bool(p, "synthesized", rec.synthesized);
    emit_bool(p, "csc_solved", rec.csc_solved);
    emit_str(p, "failed_stage", rec.failed_stage);
    emit_str(p, "message", rec.message);
    emit_size(p, "states", rec.states);
    emit_size(p, "arcs", rec.arcs);
    emit_size(p, "signals", rec.signals);
    emit_size(p, "explored", rec.explored);
    emit_size(p, "csc_signals", rec.csc_signals);
    emit_size(p, "literals", rec.literals);
    emit_double(p, "initial_cost", rec.initial_cost);
    emit_double(p, "reduced_cost", rec.reduced_cost);
    emit_double(p, "area", rec.area);
    emit_double(p, "cycle", rec.cycle);
    emit_double(p, "seconds", rec.seconds);
    for (const auto& t : rec.timings) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "timing %s %.17g\n", stage_name(t.stage), t.seconds);
        p += buf;
    }
    for (const auto& impl : rec.netlist) {
        p += "impl ";
        p += impl.kind;
        char buf[48];
        std::snprintf(buf, sizeof buf, " %.17g\n", impl.area);
        p += buf;
        emit_str(p, "impl.name", impl.name);
        emit_str(p, "impl.eq", impl.equation);
    }
    emit_str(p, "astg", rec.recovered_astg);
    emit_str(p, "verilog", rec.verilog);
    emit_str(p, "cmodel", rec.cmodel);
    emit_bool(p, "impl_checked", rec.impl_checked);
    emit_size(p, "impl_states", rec.impl_states);

    std::string out = "asynth-record v" + std::to_string(record_schema_version) + " " +
                      std::to_string(p.size()) + " " + hex32(hash128_bytes(p.data(), p.size())) +
                      "\n";
    out += p;
    return out;
}

parse_status parse_record(std::string_view text, stored_record& out) {
    // ---- header: "asynth-record v<schema> <bytes> <hash32>\n" --------------
    constexpr std::string_view magic = "asynth-record v";
    const auto hdr_end = text.find('\n');
    if (hdr_end == std::string_view::npos || text.substr(0, magic.size()) != magic)
        return parse_status::corrupt;
    const std::string_view hdr = text.substr(magic.size(), hdr_end - magic.size());
    const auto sp1 = hdr.find(' ');
    const auto sp2 = sp1 == std::string_view::npos ? sp1 : hdr.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos) return parse_status::corrupt;
    uint64_t schema = 0, bytes = 0;
    if (!parse_u64(hdr.substr(0, sp1), schema)) return parse_status::corrupt;
    if (!parse_u64(hdr.substr(sp1 + 1, sp2 - sp1 - 1), bytes)) return parse_status::corrupt;
    const std::string_view want_hash = hdr.substr(sp2 + 1);
    // Version check precedes the integrity check: a future schema's payload
    // may legitimately hash differently than this reader expects.
    if (schema != static_cast<uint64_t>(record_schema_version)) return parse_status::version_skew;
    const std::string_view payload = text.substr(hdr_end + 1);
    if (payload.size() != bytes || want_hash.size() != 32) return parse_status::corrupt;
    if (hex32(hash128_bytes(payload.data(), payload.size())) != want_hash)
        return parse_status::corrupt;

    // ---- payload: hash-verified, but still parsed defensively --------------
    stored_record rec;
    reader rd{payload};
    auto read_str = [&](std::string_view rest) -> std::string {
        uint64_t n = 0;
        if (!parse_u64(rest, n)) {
            rd.failed = true;
            return {};
        }
        return std::string(rd.raw(n));
    };
    while (!rd.done() && !rd.failed) {
        const std::string_view ln = rd.line();
        if (rd.failed) break;
        const auto sp = ln.find(' ');
        if (sp == std::string_view::npos) {
            rd.failed = true;
            break;
        }
        const std::string_view key = ln.substr(0, sp);
        const std::string_view rest = ln.substr(sp + 1);
        uint64_t u = 0;
        double d = 0.0;
        auto want_u = [&] { return parse_u64(rest, u) || (rd.failed = true, false); };
        auto want_d = [&] { return parse_f64(rest, d) || (rd.failed = true, false); };
        if (key == "fingerprint") rec.fingerprint = read_str(rest);
        else if (key == "completed") rec.completed = rest == "1";
        else if (key == "synthesized") rec.synthesized = rest == "1";
        else if (key == "csc_solved") rec.csc_solved = rest == "1";
        else if (key == "failed_stage") rec.failed_stage = read_str(rest);
        else if (key == "message") rec.message = read_str(rest);
        else if (key == "states" && want_u()) rec.states = u;
        else if (key == "arcs" && want_u()) rec.arcs = u;
        else if (key == "signals" && want_u()) rec.signals = u;
        else if (key == "explored" && want_u()) rec.explored = u;
        else if (key == "csc_signals" && want_u()) rec.csc_signals = u;
        else if (key == "literals" && want_u()) rec.literals = u;
        else if (key == "initial_cost" && want_d()) rec.initial_cost = d;
        else if (key == "reduced_cost" && want_d()) rec.reduced_cost = d;
        else if (key == "area" && want_d()) rec.area = d;
        else if (key == "cycle" && want_d()) rec.cycle = d;
        else if (key == "seconds" && want_d()) rec.seconds = d;
        else if (key == "timing") {
            const auto sp3 = rest.find(' ');
            if (sp3 == std::string_view::npos || !parse_f64(rest.substr(sp3 + 1), d)) {
                rd.failed = true;
                break;
            }
            // A stage name this build does not know (newer producer) is
            // dropped rather than misattributed.
            if (auto stage = stage_of(rest.substr(0, sp3))) rec.timings.push_back({*stage, d});
        } else if (key == "impl") {
            const auto sp3 = rest.find(' ');
            if (sp3 == std::string_view::npos || !parse_f64(rest.substr(sp3 + 1), d)) {
                rd.failed = true;
                break;
            }
            stored_impl si;
            si.kind = std::string(rest.substr(0, sp3));
            si.area = d;
            rec.netlist.push_back(std::move(si));
        } else if (key == "impl.name") {
            if (rec.netlist.empty()) rd.failed = true;
            else rec.netlist.back().name = read_str(rest);
        } else if (key == "impl.eq") {
            if (rec.netlist.empty()) rd.failed = true;
            else rec.netlist.back().equation = read_str(rest);
        } else if (key == "astg") {
            rec.recovered_astg = read_str(rest);
        } else if (key == "verilog") {
            rec.verilog = read_str(rest);
        } else if (key == "cmodel") {
            rec.cmodel = read_str(rest);
        } else if (key == "impl_checked") {
            rec.impl_checked = rest == "1";
        } else if (key == "impl_states" && want_u()) {
            rec.impl_states = u;
        } else {
            rd.failed = true;  // unknown key within a matching schema
        }
    }
    if (rd.failed) return parse_status::corrupt;
    out = std::move(rec);
    return parse_status::ok;
}

}  // namespace asynth::store
