// The fuzzing loop: deterministic iteration scheduling, family/oracle
// coverage, parallel checking, shrinking and counterexample persistence.
#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "batch/pool.hpp"
#include "petri/astg_io.hpp"
#include "util/hash.hpp"

namespace asynth::fuzz {

namespace {

using benchmarks::generator_options;
using benchmarks::spec_node;

// ---- spec families ---------------------------------------------------------

struct family_def {
    const char* name;
    fuzz_profile profile;
    int min_size, max_size;
    /// Structurally CSP-renderable: sizes too small for a select to fire and
    /// no arbitration knob, so the csp-frontend oracle can use the family.
    bool csp_ok;
    generator_options base;  ///< knobs; size is drawn per iteration
};

std::vector<family_def> family_table() {
    std::vector<family_def> fams;
    {
        family_def f{"plain", fuzz_profile::deep, 2, 4, true, {}};
        fams.push_back(f);
    }
    {
        family_def f{"counter", fuzz_profile::deep, 2, 4, true, {}};
        f.base.counter = 0.6;
        fams.push_back(f);
    }
    {
        family_def f{"arbiter", fuzz_profile::deep, 4, 5, false, {}};
        f.base.arbitration = 0.7;
        f.base.concurrency = 0.7;
        fams.push_back(f);
    }
    {
        // Forced two-way selects: the smallest budget that affords one.  The
        // reduce search dwarfs every budget at these state counts, so the
        // family runs the shallow profile.
        family_def f{"choice2", fuzz_profile::shallow, 6, 6, false, {}};
        f.base.choice = 1.0;
        f.base.max_width = 2;
        fams.push_back(f);
    }
    {
        // Demanded 3-way selects need size >= 8 (~65k states): only in play
        // when --max-size raises the cap (the nightly sweep does).
        family_def f{"multiway", fuzz_profile::shallow, 8, 8, false, {}};
        f.base.choice = 1.0;
        f.base.min_choice_ways = 3;
        f.base.max_width = 1;
        f.base.concurrency = 0.0;
        fams.push_back(f);
    }
    return fams;
}

std::vector<oracle> enabled_oracles(uint32_t mask) {
    std::vector<oracle> out;
    for (std::size_t i = 0; i < oracle_count; ++i)
        if (mask & oracle_bit(static_cast<oracle>(i))) out.push_back(static_cast<oracle>(i));
    return out;
}

/// Everything one iteration decides and produces.  Deterministic in
/// (fuzz_options, i) regardless of worker scheduling.
struct iteration_outcome {
    oracle o = oracle::engines;
    fuzz_profile profile = fuzz_profile::deep;
    std::string family;
    spec_node recipe;
    std::string csp_text;   ///< csp oracle only
    std::string diagnosis;  ///< "" = oracle pair agreed
};

iteration_outcome run_one(const fuzz_options& opt, const std::vector<oracle>& oracles,
                          const std::vector<family_def>& fams, uint64_t i) {
    iteration_outcome out;
    out.o = oracles[i % oracles.size()];

    // Families compatible with this oracle and the size cap.
    std::vector<const family_def*> avail;
    for (const auto& f : fams) {
        if (f.min_size > opt.max_size) continue;
        if (out.o == oracle::csp_frontend && !f.csp_ok) continue;
        avail.push_back(&f);
    }
    // Oracle rotates fastest, family advances once per full oracle cycle:
    // every (oracle, family) combination is covered deterministically in
    // |oracles| * |families| iterations -- no drawn-index aliasing, and CI
    // coverage assertions cannot flake.
    const family_def& fam = *avail[(i / oracles.size()) % avail.size()];
    out.family = fam.name;
    out.profile = fam.profile;

    // Per-iteration PRNG stream: mixes seed and iteration so neighbouring
    // iterations and neighbouring seeds share nothing.
    xorshift64 rng(splitmix64(opt.seed * 0x9e3779b97f4a7c15ULL + i) | 1);
    generator_options go = fam.base;
    int cap = std::min(fam.max_size, opt.max_size);
    go.size = fam.min_size + static_cast<int>(rng.next_below(
                                 static_cast<uint64_t>(cap - fam.min_size + 1)));
    uint64_t spec_seed = rng.next();
    std::string name = "fuzz_i" + std::to_string(i);

    try {
        out.recipe = benchmarks::generate_recipe(spec_seed, go);
        stg spec = benchmarks::build_spec(out.recipe, name);
        if (out.o == oracle::csp_frontend) {
            out.csp_text = render_csp(out.recipe, name);
            out.diagnosis = check_csp_agreement(out.csp_text, spec);
        } else {
            out.diagnosis = check_oracle(out.o, spec, out.profile, opt.inject, opt.inject_net);
        }
    } catch (const error& e) {
        // Generation or an oracle leg threw: that is itself a finding -- the
        // generator promises every recipe materialises and the pipeline
        // promises it never throws.
        out.diagnosis = std::string("exception: ") + e.what();
    }
    return out;
}

/// Does the (shrunk candidate) recipe still fail *the same way*?  Mismatch
/// findings must keep mismatching and exception findings must keep throwing;
/// crossing between the two classes would let the shrinker walk away from
/// the original bug (shrink.hpp's contract).
bool recipe_fails(const spec_node& recipe, const iteration_outcome& ctx,
                  const fuzz_options& opt) {
    const bool want_exception = ctx.diagnosis.rfind("exception: ", 0) == 0;
    try {
        stg spec = benchmarks::build_spec(recipe, "shrunk");
        std::string diag = ctx.o == oracle::csp_frontend
                               ? check_csp_agreement(render_csp(recipe, "shrunk"), spec)
                               : check_oracle(ctx.o, spec, ctx.profile, opt.inject,
                                              opt.inject_net);
        return !want_exception && !diag.empty();
    } catch (const error&) {
        return want_exception;
    } catch (...) {
        return false;
    }
}

std::string sanitize_filename(std::string s) {
    for (char& c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '_') c = '_';
    return s;
}

/// The counterexample header line that names the option profile; read back by
/// profile_of_counterexample().
constexpr std::string_view profile_key = "# profile: ";

/// Writes the minimised counterexample; returns the .g path ("" on failure).
std::string write_counterexample(const fuzz_options& opt, const finding& f) {
    std::error_code ec;
    std::filesystem::create_directories(opt.dir, ec);
    std::string stem = std::string("cex_") + sanitize_filename(oracle_name(f.o)) + "_s" +
                       std::to_string(opt.seed) + "_i" + std::to_string(f.iteration);
    std::string path = opt.dir + "/" + stem + ".g";
    std::string header;
    header += "# asynth-fuzz counterexample (minimised)\n";
    header += std::string("# oracle: ") + oracle_name(f.o) + "\n";
    header += std::string(profile_key) + profile_name(f.profile) + "\n";
    header += "# family: " + f.family + "\n";
    header += "# diagnosis: " + f.diagnosis + "\n";
    header += "# repro: asynth fuzz --seed " + std::to_string(opt.seed) + " --budget " +
              std::to_string(f.iteration + 1) + "x --oracle " + oracle_name(f.o) + "\n";
    header += std::string("# replay: asynth fuzz --replay ") + stem + ".g\n";
    {
        std::ofstream out(path, std::ios::binary);
        if (!out) return "";
        out << header << f.spec_astg;
        if (!out) return "";
    }
    if (!f.csp_text.empty()) {
        std::ofstream csp(opt.dir + "/" + stem + ".csp", std::ios::binary);
        csp << f.csp_text << "\n";
    }
    return path;
}

}  // namespace

fuzz_profile profile_of_counterexample(std::string_view text) {
    // The header is the leading block of '#' lines (and blank lines).
    while (!text.empty()) {
        const std::size_t end = text.find('\n');
        const std::string_view line = text.substr(0, end);
        if (line.starts_with(profile_key))
            return profile_from_name(line.substr(profile_key.size())).value_or(fuzz_profile::deep);
        if (!line.empty() && line[0] != '#') break;
        text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
    }
    return fuzz_profile::deep;
}

fuzz_report run_fuzz(const fuzz_options& opt) {
    fuzz_report report;
    auto oracles = enabled_oracles(opt.oracles & all_oracles);
    require(!oracles.empty(), "fuzz: no oracles enabled");
    require(opt.max_size >= 2, "fuzz: --max-size must be >= 2");
    auto fams = family_table();

    uint64_t iteration_budget = opt.iterations;
    double second_budget = opt.seconds;
    if (iteration_budget == 0 && second_budget <= 0.0) iteration_budget = 20;

    std::vector<std::pair<std::string, uint64_t>> family_counts;
    for (const auto& f : fams) family_counts.emplace_back(f.name, 0);

    const std::size_t jobs = batch::resolve_jobs(opt.jobs);
    batch::work_stealing_pool pool(jobs);
    auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    };

    uint64_t next = 0;
    while (true) {
        if (iteration_budget != 0 && next >= iteration_budget) break;
        if (second_budget > 0.0 && elapsed() >= second_budget) break;
        std::size_t chunk = jobs;
        if (iteration_budget != 0)
            chunk = std::min<uint64_t>(chunk, iteration_budget - next);
        std::vector<iteration_outcome> outcomes(chunk);
        pool.run(chunk,
                 [&](std::size_t k) { outcomes[k] = run_one(opt, oracles, fams, next + k); });

        for (std::size_t k = 0; k < chunk; ++k) {
            auto& oc = outcomes[k];
            ++report.oracles[static_cast<std::size_t>(oc.o)].checks;
            for (auto& fc : family_counts)
                if (fc.first == oc.family) ++fc.second;
            if (oc.diagnosis.empty()) continue;

            ++report.oracles[static_cast<std::size_t>(oc.o)].mismatches;
            finding f;
            f.o = oc.o;
            f.profile = oc.profile;
            f.iteration = next + k;
            f.family = oc.family;
            f.diagnosis = oc.diagnosis;
            f.shrunk = shrink_recipe(
                oc.recipe, [&](const spec_node& cand) { return recipe_fails(cand, oc, opt); },
                opt.max_shrink_evals, &f.shrink);
            f.spec_astg = write_astg(benchmarks::build_spec(f.shrunk, "shrunk"));
            if (oc.o == oracle::csp_frontend) f.csp_text = render_csp(f.shrunk, "shrunk");
            if (!opt.dir.empty()) f.file = write_counterexample(opt, f);
            report.findings.push_back(std::move(f));
        }
        next += chunk;
    }
    report.iterations = next;
    report.seconds = elapsed();

    for (auto& fc : family_counts)
        if (fc.second > 0) report.families.push_back(fc);
    return report;
}

std::string fuzz_report::summary() const {
    std::string out;
    char buf[160];
    std::snprintf(buf, sizeof buf, "fuzz: %llu iterations in %.1fs\n",
                  static_cast<unsigned long long>(iterations), seconds);
    out += buf;
    for (std::size_t i = 0; i < oracle_count; ++i) {
        if (oracles[i].checks == 0) continue;
        std::snprintf(buf, sizeof buf, "  oracle %-16s checks %-6llu mismatches %llu\n",
                      oracle_name(static_cast<oracle>(i)),
                      static_cast<unsigned long long>(oracles[i].checks),
                      static_cast<unsigned long long>(oracles[i].mismatches));
        out += buf;
    }
    for (const auto& [name, count] : families) {
        std::snprintf(buf, sizeof buf, "  family %-16s specs  %llu\n", name.c_str(),
                      static_cast<unsigned long long>(count));
        out += buf;
    }
    for (const auto& f : findings) {
        std::snprintf(buf, sizeof buf, "  FINDING oracle %s iteration %llu (shrunk to %d ch): ",
                      oracle_name(f.o), static_cast<unsigned long long>(f.iteration),
                      f.shrunk.channels());
        out += buf;
        out += f.diagnosis;
        if (!f.file.empty()) out += " -> " + f.file;
        out += "\n";
    }
    out += findings.empty() ? "FUZZ OK\n" : "FUZZ FAIL\n";
    return out;
}

std::string replay_text(const std::string& astg_text, const std::string& csp_text,
                        uint32_t oracles, fuzz_profile profile) {
    stg spec = parse_astg(astg_text);
    std::string all;
    for (std::size_t i = 0; i < oracle_count; ++i) {
        auto o = static_cast<oracle>(i);
        if (!(oracles & oracle_bit(o))) continue;
        std::string diag;
        if (o == oracle::csp_frontend) {
            if (csp_text.empty()) continue;  // no paired .csp: nothing to compare
            diag = check_csp_agreement(csp_text, spec);
        } else {
            diag = check_oracle(o, spec, profile);
        }
        if (!diag.empty()) all += std::string(oracle_name(o)) + ": " + diag + "\n";
    }
    return all;
}

}  // namespace asynth::fuzz
