/**
 * @file
 * Figure 5 regeneration: NTT runtime per butterfly (ns) on a single
 * core, for every tier the paper plots — GMP, OpenFHE(-like), scalar,
 * AVX2, AVX-512, MQX — across NTT sizes 2^10..2^18, plus the
 * paper-derived reference series for both of the paper's CPUs.
 *
 * The paper's corresponding figures are 5a (Intel Xeon 8352Y) and 5b
 * (AMD EPYC 9654). We measure on the host CPU and compare the *ratios*
 * (who wins, by what factor) against both reference tables.
 */
#include "bench_common.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "core/batch_layout.h"
#include "engine/thread_pool.h"

using namespace mqx;
using namespace mqx::bench;

namespace {

/**
 * Forward + inverse pair timing for one (plan, backend, reduction,
 * fusion) configuration, in ns per op (one op = fwd + inv), with
 * PINNED iteration counts so BENCH_ntt.json is diffable across PRs
 * (the interactive figure mode keeps the paper's 100/50 protocol).
 */
double
measureFwdInvNs(Backend be, const ntt::NttPlan& plan, size_t n,
                Reduction red, StageFusion fusion, int total, int kept)
{
    auto input_u = randomResidues(n, plan.modulus().value(), 0x15a9 + n);
    ResidueVector in = ResidueVector::fromU128(input_u);
    ResidueVector mid(n), out(n), scratch(n);
    Measurement m = runProtocol(
        [&] {
            ntt::forward(plan, be, in.span(), mid.span(), scratch.span(),
                         MulAlgo::Schoolbook, red, fusion);
            ntt::inverse(plan, be, mid.span(), out.span(), scratch.span(),
                         MulAlgo::Schoolbook, red, fusion);
        },
        total, kept);
    // Min of the kept window: the mean is hostage to scheduler noise on
    // shared hosts, and the trajectory file must be comparable across
    // PRs run on different machines.
    return m.min_ns;
}

/**
 * Batch scenario: k channels' fwd+inv through the interleaved batch
 * kernels (packed layout, pack/unpack excluded from the timed region)
 * vs k per-channel radix-2 transforms — the ROADMAP item 2 measurement.
 * Returns {per_channel_ns, batch_ns} for one (backend, k, n).
 */
std::pair<double, double>
measureBatchFwdInvNs(Backend be, const ntt::NttPlan& plan, size_t n, size_t k,
                     int total, int kept)
{
    const size_t il = ntt::batchInterleave(be);
    const BatchLayout layout(n, k, il);

    std::vector<ResidueVector> lanes;
    std::vector<DConstSpan> lane_spans;
    for (size_t c = 0; c < k; ++c) {
        lanes.push_back(ResidueVector::fromU128(
            randomResidues(n, plan.modulus().value(), 0xba7c + 31 * c)));
    }
    for (auto& v : lanes)
        lane_spans.push_back(v.span());

    // Per-channel baseline: k independent fwd+inv pairs, radix-2
    // Shoup-lazy (the same wiring the batch kernels run).
    ResidueVector mid(n), out(n), scratch(n);
    Measurement per = runProtocol(
        [&] {
            for (size_t c = 0; c < k; ++c) {
                ntt::forward(plan, be, lane_spans[c], mid.span(),
                             scratch.span(), MulAlgo::Schoolbook,
                             Reduction::ShoupLazy, StageFusion::Radix2);
                ntt::inverse(plan, be, mid.span(), out.span(), scratch.span(),
                             MulAlgo::Schoolbook, Reduction::ShoupLazy,
                             StageFusion::Radix2);
            }
        },
        total, kept);

    // Interleaved path: pack once outside the timed region (batch
    // residency — the Engine reuses packed operands across stages), then
    // sweep each group of il lanes with one batched fwd+inv.
    ResidueVector packed_in(layout.totalWords()),
        packed_mid(layout.totalWords()), packed_out(layout.totalWords()),
        packed_scratch(layout.totalWords());
    batch::packLanes(layout, lane_spans.data(), k, packed_in.span());
    const size_t group_words = il * n;
    Measurement bat = runProtocol(
        [&] {
            for (size_t g = 0; g < layout.groups(); ++g) {
                const size_t off = g * group_words;
                DSpan in{packed_in.span().hi + off, packed_in.span().lo + off,
                         group_words};
                DSpan gmid{packed_mid.span().hi + off,
                           packed_mid.span().lo + off, group_words};
                DSpan gout{packed_out.span().hi + off,
                           packed_out.span().lo + off, group_words};
                DSpan gscr{packed_scratch.span().hi + off,
                           packed_scratch.span().lo + off, group_words};
                ntt::forwardBatch(plan, be, il, in, gmid, gscr);
                ntt::inverseBatch(plan, be, il, gmid, gout, gscr);
            }
        },
        total, kept);
    return {per.min_ns, bat.min_ns};
}

/** Pinned per-size iteration counts (total/kept) for the JSON mode. */
void
pinnedIters(size_t n, int& total, int& kept)
{
    if (n <= 4096) {
        total = 40;
        kept = 20;
    } else if (n <= 16384) {
        total = 20;
        kept = 10;
    } else {
        total = 12;
        kept = 6;
    }
}

/**
 * --json mode: Radix2 vs Radix4 ns/op per backend
 * x n (Shoup-lazy steady state), plus the Barrett ablation at the small
 * sizes, written as BENCH_ntt.json (or the path given after --json).
 * CI uploads this as an artifact AND the repo root carries a pinned
 * copy so the perf trajectory is diffable across PRs. Each row also
 * reports bytes_swept_per_transform (the analytic DRAM-sweep model from
 * NttPlan) so the traffic reduction is visible, not just inferred.
 */
int
runJsonMode(const char* path)
{
    const auto& prime = ntt::defaultBenchPrime();
    const std::vector<size_t> sizes = {256, 1024, 4096, 16384, 65536};
    std::vector<Backend> backends;
    for (Backend b : {Backend::Scalar, Backend::Portable, Backend::Avx2,
                      Backend::Avx512}) {
        if (backendAvailable(b))
            backends.push_back(b);
    }

    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return 1;
    }
    os << "{\n  \"bench\": \"ntt\",\n";
    os << "  \"unit\": \"ns_per_op\",\n";
    os << "  \"op\": \"forward+inverse\",\n";
    os << "  \"modulus_bits\": " << Modulus(prime.q).bits() << ",\n";
    // Host metadata: which machine and build produced these numbers —
    // the trajectory file is diffed across PRs, so "what ran this" must
    // live next to the results. Brand strings come from CPUID; escape
    // the two characters that could break the JSON string.
    std::string cpu_brand = hostCpuFeatures().brand;
    std::string cpu_escaped;
    for (char ch : cpu_brand) {
        if (ch == '"' || ch == '\\')
            cpu_escaped += '\\';
        cpu_escaped += ch;
    }
    os << "  \"cpu\": \"" << cpu_escaped << "\",\n";
    os << "  \"threads\": " << engine::defaultThreadCount() << ",\n";
    os << "  \"compiled_backends\": [\"Scalar\", \"Portable\"";
#if MQX_BUILD_AVX2
    os << ", \"AVX2\"";
#endif
#if MQX_BUILD_AVX512
    os << ", \"AVX-512\", \"MQX\"";
#endif
    os << "],\n";
    os << "  \"results\": [\n";

    Backend best = bestBackend();
    // Headline: the strongest radix2 -> radix4 speedup at
    // n = 65536 across backends, and which backend achieved it. On
    // hosts whose LLC swallows the 65536 working set the emulated-SIMD
    // tiers stay compute-bound and show little; the scalar tier (cheap
    // native-128-bit butterflies, so bandwidth-bound — the paper's CPU
    // bottleneck) is where the sweep reduction lands in full.
    double best_fused_65536 = 0.0; // max over backends
    Backend best_fused_backend = best;
    double fastest_fused_65536 = 0.0; // on bestBackend()
    bool first = true;
    for (size_t n : sizes) {
        // Plans are backend-independent; build each size's once (the
        // Shoup companions cost one BigUInt division per twiddle, so
        // rebuilding per backend would dominate the smoke runtime).
        ntt::NttPlan direct(prime, n);
        int total = 0, kept = 0;
        pinnedIters(n, total, kept);
        for (Backend be : backends) {
            double r2 = measureFwdInvNs(be, direct, n, Reduction::ShoupLazy,
                                        StageFusion::Radix2, total, kept);
            double r4 = measureFwdInvNs(be, direct, n, Reduction::ShoupLazy,
                                        StageFusion::Radix4, total, kept);
            double barrett = 0.0;
            if (n <= 4096) {
                barrett =
                    measureFwdInvNs(be, direct, n, Reduction::Barrett,
                                    StageFusion::Radix2, total / 2 + 1,
                                    kept / 2 + 1);
            }
            double fused_speedup = r4 > 0.0 ? r2 / r4 : 0.0;
            if (n == 65536) {
                if (be == best)
                    fastest_fused_65536 = fused_speedup;
                if (fused_speedup > best_fused_65536) {
                    best_fused_65536 = fused_speedup;
                    best_fused_backend = be;
                }
            }
            if (!first)
                os << ",\n";
            first = false;
            os << "    {\"backend\": \"" << backendName(be)
               << "\", \"n\": " << n
               << ", \"radix2_ns\": " << formatFixed(r2, 1)
               << ", \"radix4_ns\": " << formatFixed(r4, 1)
               << ", \"barrett_ns\": " << formatFixed(barrett, 1)
               << ", \"fused_speedup\": " << formatFixed(fused_speedup, 3)
               // Per single transform (the ns fields are per fwd+inv
               // PAIR — two transforms).
               << ", \"bytes_swept_per_transform\": {\"radix2\": "
               << direct.bytesSweptPerTransform(StageFusion::Radix2)
               << ", \"radix4\": "
               << direct.bytesSweptPerTransform(StageFusion::Radix4)
               << "}, \"twiddle_bytes\": " << direct.twiddleBytes() << "}";
            std::fprintf(stderr,
                         "  %-10s n=%6zu radix2=%.0fns radix4=%.0fns "
                         "(%.2fx)\n",
                         backendName(be).c_str(), n, r2, r4, fused_speedup);
        }
    }
    os << "\n  ],\n";

    // Batch scenario (ROADMAP item 2): k channels swept by the
    // interleaved kernels vs k per-channel transforms, at the FHE-core
    // size n = 4096. effective_gbps counts useful lane bytes only
    // (padding sweeps are the batch path's own overhead), and the DRAM
    // floor is the paper's Fig. 5a machine — roofline context for the
    // bytes-swept accounting.
    os << "  \"batch\": [\n";
    const size_t batch_n = 4096;
    ntt::NttPlan batch_plan(prime, batch_n);
    const size_t batch_swept =
        batch_plan.bytesSweptPerTransform(StageFusion::Radix2);
    double batch_speedup_k8 = 0.0;
    Backend batch_best_backend = best;
    first = true;
    for (Backend be : backends) {
        const size_t il = ntt::batchInterleave(be);
        for (size_t k : {size_t{4}, size_t{8}, size_t{16}}) {
            int total = 0, kept = 0;
            pinnedIters(batch_n, total, kept);
            auto [per_ns, bat_ns] = measureBatchFwdInvNs(
                be, batch_plan, batch_n, k, total, kept);
            const double speedup = bat_ns > 0.0 ? per_ns / bat_ns : 0.0;
            // One op = k fwd+inv pairs = 2k transforms' worth of sweeps.
            const double bytes =
                2.0 * static_cast<double>(k) *
                static_cast<double>(batch_swept);
            const double gbps = bat_ns > 0.0 ? bytes / bat_ns : 0.0;
            const double floor_ns = sol::dramFloorNs(
                static_cast<size_t>(bytes), sol::intelXeon8352Y());
            if (k == 8 &&
                (be == Backend::Avx2 || be == Backend::Avx512) &&
                speedup > batch_speedup_k8) {
                batch_speedup_k8 = speedup;
                batch_best_backend = be;
            }
            if (!first)
                os << ",\n";
            first = false;
            os << "    {\"backend\": \"" << backendName(be)
               << "\", \"n\": " << batch_n << ", \"k\": " << k
               << ", \"il\": " << il
               << ", \"per_channel_ns\": " << formatFixed(per_ns, 1)
               << ", \"batch_ns\": " << formatFixed(bat_ns, 1)
               << ", \"batch_speedup\": " << formatFixed(speedup, 3)
               << ", \"effective_gbps\": " << formatFixed(gbps, 2)
               << ", \"bytes_swept\": "
               << static_cast<size_t>(bytes)
               << ", \"dram_floor_ns_8352y\": " << formatFixed(floor_ns, 1)
               << "}";
            std::fprintf(stderr,
                         "  batch %-10s n=%zu k=%2zu il=%zu per=%.0fns "
                         "batch=%.0fns (%.2fx, %.1f GB/s)\n",
                         backendName(be).c_str(), batch_n, k, il, per_ns,
                         bat_ns, speedup, gbps);
        }
    }
    os << "\n  ],\n";
    os << "  \"batch_speedup_k8_n4096\": " << formatFixed(batch_speedup_k8, 3)
       << ",\n";
    os << "  \"batch_backend\": \"" << backendName(batch_best_backend)
       << "\",\n";
    os << "  \"iters\": \"pinned (40/20 <=4096, 20/10 <=16384, 12/6 above), "
          "min of kept window\",\n";
    os << "  \"fastest_backend\": \"" << backendName(best) << "\",\n";
    os << "  \"fastest_backend_speedup_n65536\": "
       << formatFixed(fastest_fused_65536, 3) << ",\n";
    os << "  \"best_fusion_backend\": \"" << backendName(best_fused_backend)
       << "\",\n";
    os << "  \"best_fwdinv_speedup_n65536\": "
       << formatFixed(best_fused_65536, 3) << "\n}\n";
    std::printf("wrote %s (best fused speedup at n=65536: %.2fx on "
                "%s; fastest backend %s at %.2fx)\n",
                path, best_fused_65536,
                backendName(best_fused_backend).c_str(),
                backendName(best).c_str(), fastest_fused_65536);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            const char* path =
                i + 1 < argc ? argv[i + 1] : "BENCH_ntt.json";
            return runJsonMode(path);
        }
    }
    printHostHeader("Figure 5: NTT runtime per butterfly (single core)");
    const auto& prime = ntt::defaultBenchPrime();
    std::printf("modulus  : %s (%d bits, 2-adicity %d)\n\n",
                toHexString(prime.q).c_str(), prime.bits, prime.two_adicity);

    const auto sizes = sol::paperNttSizes();
    auto tiers = availableTiers();

    TextTable table("Measured ns/butterfly (host CPU)");
    std::vector<std::string> header = {"n"};
    for (Tier t : tiers)
        header.push_back(tierName(t));
    table.setHeader(header);

    std::vector<std::vector<double>> measured(
        tiers.size(), std::vector<double>(sizes.size(), 0.0));
    for (size_t si = 0; si < sizes.size(); ++si) {
        size_t n = sizes[si];
        std::vector<std::string> row = {std::to_string(n)};
        for (size_t ti = 0; ti < tiers.size(); ++ti) {
            double ns = measureNtt(tiers[ti], prime, n);
            measured[ti][si] = ns;
            row.push_back(formatFixed(ns, 1));
        }
        table.addRow(row);
        std::fprintf(stderr, "  measured n=%zu\n", n);
    }
    table.print();
    std::printf("\n");

    // Paper reference series (ratio-derived; see sol/reference_data.cc).
    for (const char* cpu : {"EPYC 9654 (Fig. 5b)", "Xeon 8352Y (Fig. 5a)"}) {
        bool epyc = cpu[0] == 'E';
        TextTable ref(std::string("Paper-derived reference ns/butterfly, ") +
                      cpu);
        std::vector<std::string> h = {"n"};
        for (const auto& tier : sol::paperTiers())
            h.push_back(tier);
        ref.setHeader(h);
        for (size_t n : sizes) {
            std::vector<std::string> row = {std::to_string(n)};
            for (const auto& tier : sol::paperTiers()) {
                const auto& series = epyc ? sol::paperEpycSeries(tier)
                                          : sol::paperXeonSeries(tier);
                row.push_back(formatFixed(series.at(n), 1));
            }
            ref.addRow(row);
        }
        ref.print();
        std::printf("\n");
    }

    // Headline ratios: paper claim vs measured (geomean across sizes).
    auto tierIndex = [&](Tier t) -> int {
        for (size_t i = 0; i < tiers.size(); ++i) {
            if (tiers[i] == t)
                return static_cast<int>(i);
        }
        return -1;
    };
    auto ratioOf = [&](Tier slow, Tier fast) -> double {
        int si = tierIndex(slow), fi = tierIndex(fast);
        if (si < 0 || fi < 0)
            return 0.0;
        std::vector<double> r;
        for (size_t k = 0; k < sizes.size(); ++k)
            r.push_back(measured[static_cast<size_t>(si)][k] /
                        measured[static_cast<size_t>(fi)][k]);
        return geomean(r);
    };

    TextTable claims("Headline speedups: paper claim vs measured (host)");
    claims.setHeader({"claim", "paper", "measured"});
    claims.addRow({"Scalar vs OpenFHE(-like)", "11x (AMD) / 13.5x (Intel)",
                   formatSpeedup(ratioOf(Tier::OpenFheLike, Tier::Scalar))});
    claims.addRow({"AVX2 vs Scalar", "1.2x (AMD) / ~1x (Intel)",
                   formatSpeedup(ratioOf(Tier::Scalar, Tier::Avx2))});
    claims.addRow({"AVX-512 vs AVX2", "1.7x (AMD) / 2.4x vs scalar (Intel)",
                   formatSpeedup(ratioOf(Tier::Avx2, Tier::Avx512))});
    claims.addRow({"MQX vs AVX-512", "3.7x (AMD) / 2.1x (Intel)",
                   formatSpeedup(ratioOf(Tier::Avx512, Tier::MqxPisa))});
    claims.addRow({"AVX-512 vs GMP", "53x (Intel)",
                   formatSpeedup(ratioOf(Tier::Gmp, Tier::Avx512))});
    claims.addRow({"AVX-512 vs BigUInt (GMP substitute)", "(same band)",
                   formatSpeedup(ratioOf(Tier::BigInt, Tier::Avx512))});
    claims.addRow({"MQX vs OpenFHE(-like)", "86.5x (AMD) / 66.9x (Intel)",
                   formatSpeedup(ratioOf(Tier::OpenFheLike, Tier::MqxPisa))});
    claims.print();
    return 0;
}
