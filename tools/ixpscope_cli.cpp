// ixpscope — command-line front door to the library.
//
//   ixpscope info                      model inventory at the chosen scale
//   ixpscope generate --week N --out F record one week of sFlow to a trace
//   ixpscope analyze --week N --in F   run the pipeline on a recorded trace
//   ixpscope corrupt --in F --out F    damage a trace with seeded faults
//   ixpscope serve --listen PATH       run the streaming collector service
//   ixpscope replay --in F --connect P replay a trace into a running serve
//   ixpscope diff --from A --to B      week-over-week change report (§4.2)
//   ixpscope weeks --from A --to B --dir D  resumable longitudinal run (§4);
//                                      --jobs N forks N worker processes
//   ixpscope merge --dir A --dir B --out D  fold snapshot stores into one
//   ixpscope probe --week N            run the async measurement sweeps
//   ixpscope bgp-export --out F        dump the routing table (BGP text)
//
// Global flags: --volume <double> (default 1/256), --quick (test preset).
//
// Ingest flags are shared by every trace-consuming command (analyze,
// corrupt, serve) and parsed in one place with one set of semantics:
// --threads N shards the work over N workers (byte-identical report for
// any N), --strict fails if any record is corrupt, --max-errors N
// tolerates at most N. Every trace is mapped (MappedTrace) and decoded
// by TraceCursor, in segments when --threads asks for more than one.
//
// serve is the live collector (DESIGN.md §12): datagrams arrive over a
// Unix socket and/or UDP, flow through bounded per-agent queues into the
// same batched analysis hot path, and the service publishes a snapshot
// report every --snapshot-every datagrams plus a final one on SIGTERM /
// SIGINT drain. replay feeds a recorded trace into a running serve with
// each record's original offset framed in, which makes the service's
// final cumulative snapshot byte-identical to `ixpscope analyze` of the
// same file.
#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "analysis/longitudinal.hpp"
#include "analysis/study.hpp"
#include "analysis/weekly_delta.hpp"
#include "core/parallel_analyzer.hpp"
#include "core/serve_service.hpp"
#include "core/vantage_point.hpp"
#include "ingest/ingest_source.hpp"
#include "net/bgp_dump.hpp"
#include "probe/metadata_pass.hpp"
#include "probe/sweeps.hpp"
#include "sflow/fault_injector.hpp"
#include "sflow/mapped_trace.hpp"
#include "sflow/socket_intake.hpp"
#include "sflow/trace.hpp"
#include "sflow/trace_segment.hpp"
#include "store/snapshot_store.hpp"
#include "store/store_merge.hpp"
#include "store/weeks_mapreduce.hpp"
#include "store/weeks_runner.hpp"
#include "util/fnv.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace ixp;

/// Ingest flags shared across analyze / corrupt / serve — one struct, one
/// parse site, one meaning.
struct IngestOptions {
  int threads = 1;
  bool strict = false;
  std::uint64_t max_errors = std::numeric_limits<std::uint64_t>::max();

  [[nodiscard]] sflow::ReadPolicy policy() const {
    return strict ? sflow::ReadPolicy::strict()
                  : sflow::ReadPolicy{max_errors};
  }
};

struct Options {
  std::string command;
  int week = 45;
  int from_week = 44;
  int to_week = 45;
  double volume = 1.0 / 256.0;
  bool quick = false;
  IngestOptions ingest;
  std::uint64_t seed = 1;
  std::string in_path;
  std::string out_path;
  std::vector<std::string> dirs;  // --dir (repeatable; weeks takes one,
                                  // merge folds all of them)
  int jobs = 1;                   // weeks --jobs (worker processes)

  // probe (async measurement engine knobs)
  int loss_permille = 0;               // --loss (per-attempt, permille)
  int concurrency = 4096;              // --concurrency (in-flight cap)
  int attempts = 3;                    // --attempts (per exchange)
  std::uint64_t timeout_us = 250'000;  // --timeout-us (attempt 0; doubles)

  // serve / replay
  std::string listen_path;             // --listen (unix socket)
  bool udp = false;                    // --udp given
  int udp_port = 0;                    // 0 = ephemeral
  std::size_t window_epochs = 0;       // --window (0 = cumulative)
  std::uint64_t snapshot_every = 0;    // --snapshot-every (datagrams)
  std::size_t queue_capacity = sflow::AgentQueues::kDefaultCapacity;
  std::size_t max_agents = sflow::AgentQueues::kDefaultMaxAgents;
  std::uint64_t max_datagrams = 0;     // --max-datagrams (0 = until signal)
  int agents = 1;                      // replay --agents
  std::string connect_path;            // replay --connect
};

int usage() {
  std::cerr <<
      "usage: ixpscope <command> [flags]\n"
      "  info                          print the model inventory\n"
      "  generate --week N --out FILE  record one week of sFlow samples\n"
      "  analyze  --week N --in FILE   run the pipeline on a trace\n"
      "  corrupt  --in FILE --out FILE damage a trace (deterministic)\n"
      "           [--seed S]           fault-injection seed (default 1)\n"
      "  serve    --listen PATH | --udp [PORT]   streaming collector\n"
      "           [--week N]           week the service accumulates\n"
      "           [--window E]         report covers last E snapshot epochs\n"
      "                                (default 0 = cumulative)\n"
      "           [--snapshot-every D] publish every D datagrams\n"
      "           [--queue-cap Q]      per-agent queue bound (drop beyond)\n"
      "           [--max-agents M]     tracked-agent cap (FIFO eviction)\n"
      "           [--max-datagrams N]  drain after N datagrams (testing)\n"
      "  replay   --in FILE --connect PATH       replay a trace into serve\n"
      "           [--agents N]         spread records over N synthetic agents\n"
      "  diff     --from A --to B      week-over-week change report\n"
      "           [--threads N]        shard each week over N workers\n"
      "  weeks    --from A --to B --dir PATH     resumable longitudinal run\n"
      "                                one durable snapshot per week; re-runs\n"
      "                                resume past completed weeks\n"
      "           [--jobs N]           fork N worker processes over the range\n"
      "                                (reports byte-identical for any N)\n"
      "  merge    --dir A [--dir B ...] --out D   fold snapshot stores into\n"
      "                                one store covering the union of weeks\n"
      "  probe    [--week N]           run the async measurement sweeps\n"
      "           [--loss P]           per-attempt loss in permille\n"
      "           [--concurrency C]    in-flight cap (default 4096)\n"
      "           [--attempts A]       attempts per exchange (default 3)\n"
      "           [--timeout-us T]     attempt-0 timeout; doubles per retry\n"
      "           [--threads N]        metadata-pass worker threads\n"
      "  bgp-export --out FILE         dump the routing table\n"
      "ingest flags (analyze/corrupt/serve, same semantics everywhere):\n"
      "  --threads N    shard the analysis over N workers\n"
      "  --strict       exit 1 if any record is corrupt (full taxonomy\n"
      "                 printed)\n"
      "  --max-errors N tolerate at most N corrupt records\n"
      "flags: --volume <0..1> (default 0.00390625), --quick\n"
      "exit codes: 0 ok, 1 error, 2 usage, 3 analysis completed degraded,\n"
      "            4 input trace unreadable (missing or shorter than header),\n"
      "            5 snapshot directory unreadable (weeks/merge --dir, --out),\n"
      "            6 a weeks --jobs worker process failed (results are still\n"
      "              complete — the parent recomputed that worker's weeks)\n";
  return 2;
}

/// Strict numeric parsing: the whole argument must be a number. atoi/atof
/// silently turned garbage into 0, which then looked like a valid week or
/// volume; from_chars rejects it loudly instead.
bool parse_int(const char* text, int& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_double(const char* text, double& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_size(const char* text, std::size_t& out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value)) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

bool parse(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto need_value = [&](int i) { return i + 1 < argc; };
    const auto bad_number = [&](const char* value) {
      std::cerr << "invalid number for " << flag << ": '" << value << "'\n";
      return false;
    };
    if (flag == "--quick") {
      opt.quick = true;
    } else if (flag == "--strict") {
      opt.ingest.strict = true;
      opt.ingest.max_errors = 0;
    } else if (flag == "--udp") {
      // Optional value: `--udp` alone binds an ephemeral port.
      opt.udp = true;
      if (need_value(i) && argv[i + 1][0] != '-') {
        if (!parse_int(argv[++i], opt.udp_port) || opt.udp_port < 0 ||
            opt.udp_port > 65535)
          return bad_number(argv[i]);
      }
    } else if (flag == "--max-errors" && need_value(i)) {
      if (!parse_u64(argv[++i], opt.ingest.max_errors))
        return bad_number(argv[i]);
    } else if (flag == "--seed" && need_value(i)) {
      if (!parse_u64(argv[++i], opt.seed)) return bad_number(argv[i]);
    } else if (flag == "--week" && need_value(i)) {
      if (!parse_int(argv[++i], opt.week)) return bad_number(argv[i]);
    } else if (flag == "--from" && need_value(i)) {
      if (!parse_int(argv[++i], opt.from_week)) return bad_number(argv[i]);
    } else if (flag == "--to" && need_value(i)) {
      if (!parse_int(argv[++i], opt.to_week)) return bad_number(argv[i]);
    } else if (flag == "--threads" && need_value(i)) {
      if (!parse_int(argv[++i], opt.ingest.threads) || opt.ingest.threads < 1)
        return bad_number(argv[i]);
    } else if (flag == "--volume" && need_value(i)) {
      if (!parse_double(argv[++i], opt.volume) || opt.volume <= 0.0 ||
          opt.volume > 1.0)
        return bad_number(argv[i]);
    } else if (flag == "--window" && need_value(i)) {
      if (!parse_size(argv[++i], opt.window_epochs)) return bad_number(argv[i]);
    } else if (flag == "--snapshot-every" && need_value(i)) {
      if (!parse_u64(argv[++i], opt.snapshot_every)) return bad_number(argv[i]);
    } else if (flag == "--queue-cap" && need_value(i)) {
      if (!parse_size(argv[++i], opt.queue_capacity) ||
          opt.queue_capacity == 0)
        return bad_number(argv[i]);
    } else if (flag == "--max-agents" && need_value(i)) {
      if (!parse_size(argv[++i], opt.max_agents) || opt.max_agents == 0)
        return bad_number(argv[i]);
    } else if (flag == "--max-datagrams" && need_value(i)) {
      if (!parse_u64(argv[++i], opt.max_datagrams)) return bad_number(argv[i]);
    } else if (flag == "--agents" && need_value(i)) {
      if (!parse_int(argv[++i], opt.agents) || opt.agents < 1)
        return bad_number(argv[i]);
    } else if (flag == "--loss" && need_value(i)) {
      if (!parse_int(argv[++i], opt.loss_permille) || opt.loss_permille < 0 ||
          opt.loss_permille > 1000)
        return bad_number(argv[i]);
    } else if (flag == "--concurrency" && need_value(i)) {
      if (!parse_int(argv[++i], opt.concurrency) || opt.concurrency < 1)
        return bad_number(argv[i]);
    } else if (flag == "--attempts" && need_value(i)) {
      if (!parse_int(argv[++i], opt.attempts) || opt.attempts < 1 ||
          opt.attempts > 8)
        return bad_number(argv[i]);
    } else if (flag == "--timeout-us" && need_value(i)) {
      if (!parse_u64(argv[++i], opt.timeout_us) || opt.timeout_us == 0)
        return bad_number(argv[i]);
    } else if (flag == "--listen" && need_value(i)) {
      opt.listen_path = argv[++i];
    } else if (flag == "--connect" && need_value(i)) {
      opt.connect_path = argv[++i];
    } else if (flag == "--dir" && need_value(i)) {
      opt.dirs.emplace_back(argv[++i]);
    } else if (flag == "--jobs" && need_value(i)) {
      if (!parse_int(argv[++i], opt.jobs) || opt.jobs < 1)
        return bad_number(argv[i]);
    } else if (flag == "--in" && need_value(i)) {
      opt.in_path = argv[++i];
    } else if (flag == "--out" && need_value(i)) {
      opt.out_path = argv[++i];
    } else if (flag == "--week" || flag == "--from" || flag == "--to" ||
               flag == "--threads" || flag == "--volume" || flag == "--in" ||
               flag == "--out" || flag == "--max-errors" || flag == "--seed" ||
               flag == "--window" || flag == "--snapshot-every" ||
               flag == "--queue-cap" || flag == "--max-agents" ||
               flag == "--max-datagrams" || flag == "--agents" ||
               flag == "--listen" || flag == "--connect" || flag == "--dir" ||
               flag == "--jobs" || flag == "--loss" || flag == "--concurrency" ||
               flag == "--attempts" || flag == "--timeout-us") {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
  }
  return true;
}

/// The model scale the global flags select.
gen::ScaleConfig scale_of(const Options& opt) {
  return opt.quick ? gen::ScaleConfig::test()
                   : gen::ScaleConfig::bench(opt.volume);
}

void print_report(const core::WeeklyReport& report) {
  util::Table table{"week " + std::to_string(report.week)};
  table.header({"", "IPs", "ASes", "prefixes", "countries"});
  table.row({"peering", util::with_thousands(report.peering_ips),
             util::with_thousands(report.peering_ases),
             util::with_thousands(report.peering_prefixes),
             std::to_string(report.peering_countries)});
  table.row({"server", util::with_thousands(report.server_ips),
             util::with_thousands(report.server_ases),
             util::with_thousands(report.server_prefixes),
             std::to_string(report.server_countries)});
  table.print(std::cout);
  std::cout << "HTTPS funnel: " << report.https_funnel.candidates << " -> "
            << report.https_funnel.responded << " -> "
            << report.https_funnel.confirmed << "\n";
  std::cout << "estimated weekly volume: " << util::bytes(report.peering_bytes())
            << "\n";
}

int cmd_info(const Options& opt) {
  const analysis::Study study{scale_of(opt)};
  const auto& model = study.model();
  std::cout << "ixpscope model (seed " << model.config().seed << ")\n";
  std::cout << "  ASes:        " << util::with_thousands(model.ases().size())
            << "\n";
  std::cout << "  prefixes:    " << util::with_thousands(model.prefixes().size())
            << "\n";
  std::cout << "  IXP members: " << model.ixp().member_count_at(model.config().first_week)
            << " -> " << model.ixp().member_count_at(model.config().last_week)
            << " (weeks " << model.config().first_week << ".."
            << model.config().last_week << ")\n";
  std::cout << "  orgs:        " << util::with_thousands(model.orgs().size())
            << "\n";
  std::cout << "  servers:     " << util::with_thousands(model.servers().size())
            << " (" << util::with_thousands(model.visible_server_count())
            << " visible at the IXP)\n";
  std::cout << "  sites:       " << util::with_thousands(model.sites().size())
            << "\n";
  std::cout << "  resolvers:   "
            << util::with_thousands(model.resolvers().size()) << " candidates\n";
  return 0;
}

int cmd_generate(const Options& opt) {
  if (opt.out_path.empty()) return usage();
  const analysis::Study study{scale_of(opt)};
  std::ofstream out{opt.out_path, std::ios::binary};
  if (!out) {
    std::cerr << "cannot write " << opt.out_path << "\n";
    return 1;
  }
  sflow::TraceWriter writer{out, net::Ipv4Addr{172, 16, 0, 1}, 128};
  study.workload().generate_week(
      opt.week, [&](const sflow::FlowSample& s) { writer.write(s); });
  writer.flush();
  std::cout << "wrote " << util::with_thousands(writer.samples_written())
            << " samples (" << writer.datagrams_written() << " datagrams) to "
            << opt.out_path << "\n";
  return 0;
}

/// The ingest-health table: what the reader delivered, what it lost, and
/// how. Printed whenever anything was lost (DESIGN.md §8).
void print_ingest_health(const sflow::ReaderStats& stats) {
  util::Table table{"ingest health"};
  table.header({"counter", "value"});
  table.row({"datagrams delivered", util::with_thousands(stats.datagrams)});
  table.row({"samples delivered", util::with_thousands(stats.samples)});
  table.row({"bytes delivered", util::with_thousands(stats.bytes_delivered)});
  table.row({"bad length", util::with_thousands(stats.bad_length)});
  table.row({"truncated", util::with_thousands(stats.truncated)});
  table.row({"decode errors", util::with_thousands(stats.decode_errors)});
  table.row({"resyncs", util::with_thousands(stats.resyncs)});
  table.row({"bytes skipped", util::with_thousands(stats.bytes_skipped)});
  table.print(std::cerr);
}

/// Reports a degraded-but-complete analysis (exit 3) or a clean one
/// (exit 0).
int report_analysis(const core::WeeklyReport& report,
                    const sflow::ReaderStats& stats) {
  print_report(report);
  if (stats.degraded()) {
    std::cerr << "warning: trace is damaged; " << stats.errors()
              << " corrupt records resynchronized past, "
              << util::with_thousands(stats.bytes_skipped)
              << " bytes skipped\n";
    print_ingest_health(stats);
    return 3;
  }
  return 0;
}

void print_budget_exceeded(const Options& opt, const sflow::ReaderStats& stats,
                           const std::string& detail) {
  std::cerr << opt.in_path << ": corrupt trace, error budget ("
            << (opt.ingest.strict ? "strict"
                                  : std::to_string(opt.ingest.max_errors))
            << ") exceeded" << detail << "\n";
  print_ingest_health(stats);
}

/// Maps the trace at `path` and validates its header — before any model
/// build, so unreadable input fails fast. Prints the reason and returns
/// the exit code on failure: 4 for a missing file or one shorter than the
/// header, 1 for a bad magic/version. Returns 0 on success.
int open_trace(const std::string& path, sflow::MappedTrace& trace) {
  trace = sflow::MappedTrace::open(path);
  if (trace.ok()) return 0;
  std::cerr << path << ": " << sflow::MappedTrace::error_name(trace.error())
            << "\n";
  return trace.error() == sflow::MappedTrace::Error::kBadHeader ? 1 : 4;
}

int cmd_analyze(const Options& opt) {
  if (opt.in_path.empty()) return usage();
  sflow::MappedTrace trace;
  if (const int code = open_trace(opt.in_path, trace); code != 0) return code;

  const analysis::Study study{scale_of(opt)};
  core::VantagePoint vantage = study.vantage();
  core::ParallelOptions popt;
  popt.threads = static_cast<unsigned>(opt.ingest.threads);
  core::ParallelAnalyzer analyzer{vantage, popt};
  ingest::MappedSource source{trace, opt.ingest.policy()};
  const auto report =
      analyzer.analyze(opt.week, source, study.fetcher(opt.week));
  if (!source.within_budget()) {
    // Over budget: the report covers only what survived the damage, so
    // refuse it rather than pass it off as the trace's result.
    print_budget_exceeded(
        opt, source.stats(),
        ": " + util::with_thousands(source.stats().errors()) +
            " corrupt records across " +
            std::to_string(source.segments().size()) + " segments");
    return 1;
  }
  return report_analysis(report, source.stats());
}

int cmd_corrupt(const Options& opt) {
  if (opt.in_path.empty() || opt.out_path.empty()) return usage();
  sflow::MappedTrace trace;
  if (const int code = open_trace(opt.in_path, trace); code != 0) return code;

  const sflow::FaultInjector injector{opt.seed};
  std::vector<std::byte> corrupted;
  const auto report = injector.corrupt(trace.bytes(), corrupted);
  if (!report) {
    std::cerr << opt.in_path
              << ": damaged record framing (corrupt takes an intact trace)\n";
    return 1;
  }
  std::ofstream out{opt.out_path, std::ios::binary};
  if (!out.write(reinterpret_cast<const char*>(corrupted.data()),
                 static_cast<std::streamsize>(corrupted.size()))) {
    std::cerr << "cannot write " << opt.out_path << "\n";
    return 1;
  }
  util::Table table{"injected faults (seed " + std::to_string(opt.seed) + ")"};
  table.header({"fault", "count"});
  table.row({"bit flips", util::with_thousands(report->bit_flips)});
  table.row({"truncations", util::with_thousands(report->truncations)});
  table.row({"bogus lengths", util::with_thousands(report->bogus_lengths)});
  table.row({"duplicates", util::with_thousands(report->duplicates)});
  table.row({"reorders", util::with_thousands(report->reorders)});
  table.row({"mid-file EOF", report->cut_short ? "1" : "0"});
  table.print(std::cout);
  std::cout << "wrote " << util::with_thousands(report->records_out)
            << " records (" << util::with_thousands(report->bytes_out)
            << " bytes, from " << util::with_thousands(report->records_in)
            << " records / " << util::with_thousands(report->bytes_in)
            << " bytes) to " << opt.out_path << "\n";
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;
extern "C" void handle_stop_signal(int) { g_stop_requested = 1; }

void print_serve_accounting(const core::ServeAccounting& accounting) {
  util::Table agents{"per-agent intake"};
  agents.header({"agent", "received", "processed", "dropped", "lost"});
  const auto add_row = [&agents](std::string label,
                                 const sflow::AgentIntakeCounters& c) {
    agents.row({std::move(label), util::with_thousands(c.received),
                util::with_thousands(c.taken), util::with_thousands(c.dropped),
                util::with_thousands(c.lost)});
  };
  for (const auto& row : accounting.intake.rows)
    add_row(row.agent.to_string(), row.counters);
  add_row("total", accounting.intake.totals());
  agents.print(std::cout);

  util::Table service{"service accounting"};
  service.header({"counter", "value"});
  service.row({"datagrams decoded", util::with_thousands(accounting.datagrams)});
  service.row({"decode errors", util::with_thousands(accounting.decode_errors)});
  service.row({"flow samples", util::with_thousands(accounting.flow_samples)});
  service.row({"counter samples",
               util::with_thousands(accounting.counter_samples)});
  service.row({"live agents", util::with_thousands(accounting.intake.rows.size())});
  service.row({"agent rows evicted",
               util::with_thousands(accounting.intake.evicted_agents)});
  service.print(std::cout);
}

int cmd_serve(const Options& opt) {
  if (opt.listen_path.empty() && !opt.udp) {
    std::cerr << "serve needs --listen PATH and/or --udp [PORT]\n";
    return usage();
  }

  sflow::SocketIntake intake;
  std::string error;
  if (!opt.listen_path.empty() &&
      !intake.listen_unix(opt.listen_path, &error)) {
    std::cerr << "serve: " << error << "\n";
    return 1;
  }
  if (opt.udp &&
      !intake.listen_udp(static_cast<std::uint16_t>(opt.udp_port), &error)) {
    std::cerr << "serve: " << error << "\n";
    return 1;
  }

  const analysis::Study study{scale_of(opt)};
  core::VantagePoint vantage = study.vantage();
  core::ServeOptions sopt;
  sopt.week = opt.week;
  sopt.threads = static_cast<unsigned>(opt.ingest.threads);
  sopt.queue_capacity = opt.queue_capacity;
  sopt.max_agents = opt.max_agents;
  sopt.window_epochs = opt.window_epochs;
  sopt.eviction_log = [](net::Ipv4Addr agent, std::uint32_t last_sequence) {
    std::cerr << "serve: evicted the row of agent "
              << agent.to_string() << " (last seq " << last_sequence << ")\n";
  };
  core::ServeService service{vantage, study.fetcher(opt.week), sopt};
  service.start();

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  std::cout << "serving week " << opt.week << " on";
  if (!intake.unix_path().empty()) std::cout << " unix:" << intake.unix_path();
  if (opt.udp) std::cout << " udp:127.0.0.1:" << intake.udp_port();
  std::cout << " (" << service.threads() << " workers, window "
            << (opt.window_epochs == 0 ? std::string{"cumulative"}
                                       : std::to_string(opt.window_epochs))
            << ")\n"
            << std::flush;

  std::uint64_t received = 0;
  std::uint64_t last_snapshot_at = 0;
  while (g_stop_requested == 0 &&
         (opt.max_datagrams == 0 || received < opt.max_datagrams)) {
    received += intake.poll_once(
        200, [&](sflow::DatagramEnvelope&& envelope) {
          (void)service.offer(std::move(envelope));
        });
    if (opt.snapshot_every != 0 &&
        received - last_snapshot_at >= opt.snapshot_every) {
      last_snapshot_at = received;
      const auto snap = service.snapshot();
      std::cout << "epoch " << snap->epoch << " [folds "
                << snap->epochs_folded << " of "
                << (snap->window_epochs == 0 ? std::string{"all"}
                                             : std::to_string(
                                                   snap->window_epochs))
                << " epochs]: "
                << util::with_thousands(snap->report.peering_ips)
                << " peering IPs, "
                << util::with_thousands(snap->report.server_ips)
                << " server IPs ("
                << util::with_thousands(
                       snap->accounting.intake.totals().received)
                << " datagrams received, "
                << util::with_thousands(
                       snap->accounting.intake.totals().dropped)
                << " dropped)\n"
                << std::flush;
    }
  }

  intake.shutdown();
  const auto final_snapshot = service.drain();
  std::cout << "drained after "
            << util::with_thousands(
                   final_snapshot->accounting.intake.totals().received)
            << " datagrams (final epoch " << final_snapshot->epoch
            << ", report folds " << final_snapshot->epochs_folded
            << " sealed epochs)\n";
  print_report(final_snapshot->report);
  print_serve_accounting(final_snapshot->accounting);
  return 0;
}

int cmd_replay(const Options& opt) {
  if (opt.in_path.empty() || opt.connect_path.empty()) return usage();

  sflow::MappedTrace trace;
  if (const int code = open_trace(opt.in_path, trace); code != 0) return code;

  std::string error;
  auto sender = sflow::DatagramSender::connect_unix(opt.connect_path, &error);
  if (!sender.ok()) {
    std::cerr << "replay: " << error << "\n";
    return 1;
  }

  // Walk the trace exactly as a lenient 1-thread analysis would and send
  // each cleanly-decoded record as one datagram, framed with its original
  // offset so the service reproduces the offline stream keys. With
  // --agents N the sFlow agent field (payload bytes 4..8) is rewritten
  // round-robin — the analysis ignores the agent, so the report stays
  // byte-identical while the service sees N concurrent senders.
  const auto segments =
      sflow::TraceSegmenter::split(trace.bytes(), 1);
  std::uint64_t records = 0;
  std::uint64_t samples = 0;
  std::uint64_t bytes_sent = 0;
  std::vector<std::byte> patched;
  for (const auto& segment : segments) {
    sflow::TraceCursor cursor{trace.bytes(), segment,
                              sflow::ReadPolicy::lenient()};
    std::uint64_t seq_base = 0;
    for (auto batch = cursor.read_record(seq_base); !batch.empty();
         batch = cursor.read_record(seq_base)) {
      std::span<const std::byte> payload = cursor.record_bytes();
      if (opt.agents > 1) {
        patched.assign(payload.begin(), payload.end());
        const auto agent = static_cast<std::uint32_t>(
            net::Ipv4Addr{10, 99, 0, 0}.value() + records % opt.agents);
        patched[4] = static_cast<std::byte>(agent >> 24);
        patched[5] = static_cast<std::byte>(agent >> 16);
        patched[6] = static_cast<std::byte>(agent >> 8);
        patched[7] = static_cast<std::byte>(agent);
        payload = patched;
      }
      if (!sender.send_framed(cursor.record_offset(), payload)) {
        std::cerr << "replay: send failed after "
                  << util::with_thousands(records) << " records: "
                  << std::strerror(errno) << "\n";
        return 1;
      }
      ++records;
      samples += batch.size();
      bytes_sent += payload.size();
    }
  }
  std::cout << "replayed " << util::with_thousands(records) << " records ("
            << util::with_thousands(samples) << " samples, "
            << util::bytes(static_cast<double>(bytes_sent)) << ") to "
            << opt.connect_path
            << (opt.agents > 1
                    ? " as " + std::to_string(opt.agents) + " agents"
                    : std::string{})
            << "\n";
  return 0;
}

int cmd_diff(const Options& opt) {
  const analysis::Study study{scale_of(opt)};
  core::VantagePoint vantage = study.vantage();
  core::ParallelOptions popt;
  popt.threads = static_cast<unsigned>(opt.ingest.threads);
  core::ParallelAnalyzer analyzer{vantage, popt};
  const auto run = [&](int week) {
    gen::WeekSource source = study.week(week);
    return analyzer.analyze(week, source, study.fetcher(week));
  };
  const auto earlier = run(opt.from_week);
  const auto later = run(opt.to_week);
  const auto delta = analysis::compare_weeks(earlier, later);

  std::cout << "weeks " << delta.earlier_week << " -> " << delta.later_week
            << "\n";
  std::cout << "  server IPs: +" << delta.servers_gained << " / -"
            << delta.servers_lost << " (" << delta.servers_common
            << " common)\n";
  std::cout << "  IP growth: " << util::percent(delta.ip_growth, 2)
            << ", traffic growth: " << util::percent(delta.traffic_growth, 2)
            << "\n";
  util::Table movers{"top AS movers (server-IP delta)"};
  movers.header({"AS", "delta"});
  for (const auto& mover : delta.top_movers) {
    movers.row({mover.asn.to_string(),
                (mover.server_delta >= 0 ? "+" : "") +
                    std::to_string(mover.server_delta)});
  }
  movers.print(std::cout);
  return 0;
}

/// The ingest half of a snapshot's provenance record. A week's report and
/// shard bytes depend on the generated stream and on its samples'
/// running-index keys, not on the adapter that delivers them: a pulled
/// gen::WeekSource and a SpanSource over the same collected week give
/// the same bytes, in batches of any size. So the value keeps the inputs
/// it was first hashed from, and stores written by either feed resume.
/// A change that moves the stream or its keys must change it; that is
/// what forces old snapshots onto the quarantine-and-recompute path.
/// cli_weeks_week45 pins the snapshot bytes this value vouches for.
std::uint64_t weeks_ingest_fingerprint() {
  util::Fnv1a hash;
  hash.mix(std::string_view{"generated-week-source"});
  hash.mix(std::uint64_t{512});  // batch size
  return hash.value();
}

void print_longitudinal(const analysis::LongitudinalSummary& lon) {
  std::cout << "longitudinal (weeks " << lon.first_week << ".."
            << lon.last_week << "):\n"
            << "  server universe: "
            << util::with_thousands(lon.server_universe) << " IPs\n"
            << "  always-on servers: "
            << util::with_thousands(lon.always_on_servers) << " ("
            << util::percent(lon.always_on_traffic_share, 2)
            << " of final-week traffic)\n"
            << "  mean weekly churn: " << util::percent(lon.mean_weekly_churn, 2)
            << "\n";
}

void print_quarantines(const char* command,
                       const std::vector<store::QuarantineEvent>& events) {
  for (const auto& event : events) {
    std::cerr << command << ": quarantined " << event.file << " -> "
              << event.quarantined_as << " ("
              << store::error_name(event.error) << ")\n";
  }
}

int cmd_weeks(const Options& opt) {
  if (opt.dirs.size() != 1) {
    std::cerr << "weeks needs exactly one --dir PATH\n";
    return usage();
  }
  const std::string& dir = opt.dirs.front();
  if (const std::string error =
          store::week_range_error(opt.from_week, opt.to_week);
      !error.empty()) {
    std::cerr << "weeks: " << error << "\n";
    return 2;
  }

  const analysis::Study study{scale_of(opt)};
  core::VantagePoint vantage = study.vantage();
  core::ParallelOptions popt;
  popt.threads = static_cast<unsigned>(opt.ingest.threads);
  core::ParallelAnalyzer analyzer{vantage, popt};
  store::WeeksRunner runner{vantage, analyzer, store::SnapshotStore{dir}};

  const auto make_source =
      [&](int week) -> std::unique_ptr<ingest::IngestSource> {
    return std::make_unique<gen::WeekSource>(study.workload(), week);
  };
  const auto fetcher_for = [&](int week) { return study.fetcher(week); };

  store::MapReduceOptions mopt;
  mopt.weeks.from_week = opt.from_week;
  mopt.weeks.to_week = opt.to_week;
  mopt.weeks.model_fingerprint = study.model().config().fingerprint();
  mopt.weeks.ingest_fingerprint = weeks_ingest_fingerprint();
  mopt.jobs = opt.jobs;
  const auto mr =
      store::run_weeks_mapreduce(runner, mopt, make_source, fetcher_for);
  const store::WeeksResult& result = mr.fold;

  print_quarantines("weeks", result.quarantined);
  if (result.stale_temps_removed != 0) {
    std::cerr << "weeks: removed " << result.stale_temps_removed
              << " stale temp file(s) from an interrupted run\n";
  }
  if (mr.store_unreadable) {
    std::cerr << "weeks: snapshot directory unusable: " << mr.error << "\n";
    return 5;
  }
  if (!mr.ok) {
    std::cerr << "weeks: " << mr.error << "\n";
    return 1;
  }

  // Per-worker accounting, printed whenever work was actually forked. A
  // dead worker is contained, not fatal: its weeks were recomputed by the
  // fold below, so the data is complete — but the run still exits 6 so
  // scripts notice the lost capacity.
  if (!mr.workers.empty()) {
    util::Table workers{"workers (--jobs " + std::to_string(opt.jobs) + ")"};
    workers.header({"worker", "pid", "weeks", "status"});
    for (const auto& outcome : mr.workers) {
      std::string status;
      if (outcome.status.spawn_failed) {
        status = "spawn failed";
      } else if (outcome.status.signaled) {
        status = "killed by signal " +
                 std::to_string(outcome.status.term_signal);
      } else if (outcome.status.exit_code != 0) {
        status = "exit " + std::to_string(outcome.status.exit_code);
      } else {
        status = outcome.status.ran_inline ? "ok (inline)" : "ok";
      }
      workers.row({std::to_string(outcome.status.worker),
                   std::to_string(outcome.status.pid),
                   std::to_string(outcome.weeks.size()), status});
    }
    workers.print(std::cout);
  }

  util::Table table{"weeks " + std::to_string(opt.from_week) + ".." +
                    std::to_string(opt.to_week) + " (" + dir + ")"};
  table.header({"week", "source", "peering IPs", "server IPs", "volume"});
  bool degraded = false;
  for (const auto& outcome : result.weeks) {
    degraded = degraded || outcome.report.degraded;
    table.row({std::to_string(outcome.week),
               outcome.resumed ? "snapshot" : "computed",
               util::with_thousands(outcome.report.peering_ips),
               util::with_thousands(outcome.report.server_ips),
               util::bytes(outcome.report.peering_bytes())});
  }
  table.print(std::cout);
  std::cout << result.weeks_resumed << " week(s) resumed from snapshots, "
            << result.weeks_computed << " computed";
  if (result.weeks_stale != 0)
    std::cout << " (" << result.weeks_stale
              << " recomputed: stale provenance)";
  std::cout << "\n";

  print_longitudinal(result.longitudinal);
  if (mr.worker_failed) {
    std::cerr << "warning: at least one worker process failed; its weeks "
                 "were recomputed by the parent\n";
    return 6;
  }
  if (degraded) {
    std::cerr << "warning: at least one computed week was degraded\n";
    return 3;
  }
  return 0;
}

int cmd_merge(const Options& opt) {
  if (opt.dirs.empty() || opt.out_path.empty()) {
    std::cerr << "merge needs --dir PATH (repeatable) and --out PATH\n";
    return usage();
  }

  // Merge copies sealed weeks and computes none, so it needs the model's
  // fingerprint but not the model.
  store::MergeOptions mopt;
  mopt.inputs = opt.dirs;
  mopt.out = opt.out_path;
  mopt.model_fingerprint = scale_of(opt).fingerprint();
  mopt.ingest_fingerprint = weeks_ingest_fingerprint();
  const auto result = store::merge_stores(mopt);

  print_quarantines("merge", result.quarantined);
  if (result.snapshots_skipped_stale != 0) {
    std::cerr << "merge: skipped " << result.snapshots_skipped_stale
              << " snapshot(s) with stale provenance (different model or "
                 "ingest policy)\n";
  }
  if (result.store_unreadable) {
    std::cerr << "merge: store directory unusable: " << result.error << "\n";
    return 5;
  }
  if (!result.ok) {
    std::cerr << "merge: " << result.error << "\n";
    return 1;
  }

  util::Table table{"merged " + std::to_string(opt.dirs.size()) +
                    " store(s) -> " + opt.out_path};
  table.header({"week", "copies", "peering IPs", "server IPs"});
  for (const auto& week : result.weeks) {
    table.row({std::to_string(week.week), std::to_string(week.copies),
               util::with_thousands(week.report.peering_ips),
               util::with_thousands(week.report.server_ips)});
  }
  table.print(std::cout);
  std::cout << result.weeks_copied << " week(s) copied through\n";
  if (!result.weeks.empty()) print_longitudinal(result.longitudinal);
  return 0;
}

/// `ixpscope probe` — the three engine-backed sweeps of DESIGN.md §15 run
/// against the model: resolver filtering (§2.3), the certificate crawl
/// (§2.2.2, zero-copy chain views) and the metadata harvest (§2.4), with
/// engine accounting and cache hit rates printed for each.
int cmd_probe(const Options& opt) {
  const analysis::Study study{scale_of(opt)};
  const auto& model = study.model();

  probe::EngineConfig config;
  config.max_in_flight = static_cast<std::uint32_t>(opt.concurrency);
  config.max_attempts = static_cast<std::uint32_t>(opt.attempts);
  config.timeout_us = static_cast<std::uint32_t>(opt.timeout_us);
  probe::NetModel net;
  net.seed = opt.seed;
  net.loss_permille = static_cast<std::uint32_t>(opt.loss_permille);

  const auto print_engine = [](const probe::EngineStats& stats) {
    std::cout << "  engine: " << util::with_thousands(stats.issued)
              << " issued = " << util::with_thousands(stats.completed)
              << " completed + " << util::with_thousands(stats.timed_out)
              << " timed out + " << util::with_thousands(stats.cancelled)
              << " cancelled (" << (stats.balanced() ? "balanced" : "IMBALANCED")
              << "); " << util::with_thousands(stats.attempts) << " attempts, "
              << util::with_thousands(stats.retries) << " retries, "
              << util::with_thousands(stats.losses) << " losses; virtual time "
              << util::with_thousands(stats.virtual_us) << " us\n";
  };
  const auto print_cache = [](const probe::CacheStats& stats) {
    std::cout << "  resolver cache: " << util::with_thousands(stats.hits)
              << " hits + " << util::with_thousands(stats.negative_hits)
              << " negative hits / " << util::with_thousands(stats.misses)
              << " misses (" << util::percent(stats.hit_rate(), 1)
              << " hit rate), " << util::with_thousands(stats.evictions)
              << " evictions, " << util::with_thousands(stats.expired)
              << " expired\n";
  };

  // ---- §2.3: resolver filtering -------------------------------------------
  dns::ZoneDatabase probe_db;
  const auto probe_name = *dns::DnsName::parse("probe.ixpscope.test");
  probe_db.add_a(probe_name, net::Ipv4Addr{192, 0, 2, 1});
  const probe::ResolverSweep resolver_sweep{config, net};
  const auto resolver_result =
      resolver_sweep.run(model.resolvers().all(), probe_db, probe_name);
  std::cout << "resolver sweep: "
            << util::with_thousands(model.resolvers().size())
            << " candidates -> "
            << util::with_thousands(resolver_result.usable.size())
            << " usable across "
            << util::with_thousands(
                   dns::ResolverPopulation::distinct_ases(
                       resolver_result.usable))
            << " ASes\n";
  print_engine(resolver_result.engine);
  print_cache(resolver_result.cache);

  // ---- §2.2.2: certificate crawl ------------------------------------------
  std::vector<net::Ipv4Addr> candidates;
  candidates.reserve(model.servers().size());
  for (const auto& server : model.servers()) candidates.push_back(server.addr);
  std::sort(candidates.begin(), candidates.end());
  probe::HttpsSweep https_sweep{model.root_store(),
                                dns::PublicSuffixList::builtin(), 3, config,
                                net};
  const int week = opt.week;
  const auto https_result = https_sweep.run(
      candidates,
      [&](net::Ipv4Addr addr, int fetch_index, x509::CertificateChain& scratch) {
        return model.fetch_chain_view(addr, fetch_index, week, scratch);
      });
  std::cout << "https sweep (week " << week << "): "
            << util::with_thousands(https_result.funnel.candidates)
            << " candidates -> "
            << util::with_thousands(https_result.funnel.responded)
            << " responded -> "
            << util::with_thousands(https_result.funnel.confirmed)
            << " confirmed ("
            << util::with_thousands(https_result.funnel.early_exits)
            << " early exits)\n";
  print_engine(https_result.engine);
  std::cout << "  domain cache: "
            << util::with_thousands(https_result.domain_cache_hits)
            << " hits / "
            << util::with_thousands(https_result.domain_cache_misses)
            << " misses\n";

  // ---- §2.4: metadata harvest ---------------------------------------------
  std::vector<probe::MetadataItem> items;
  items.reserve(https_result.confirmed.size());
  for (const net::Ipv4Addr addr : https_result.confirmed)
    items.push_back(probe::MetadataItem{addr, {}, nullptr});
  probe::MetadataPass::Options popt;
  popt.threads = static_cast<unsigned>(opt.ingest.threads);
  popt.engine = config;
  popt.net = net;
  const probe::MetadataPass pass{model.dns_db(),
                                 dns::PublicSuffixList::builtin(), popt};
  const auto harvested = pass.run(items);
  std::cout << "metadata pass: "
            << util::with_thousands(harvested.shard.coverage.servers)
            << " servers, "
            << util::with_thousands(harvested.shard.coverage.with_dns)
            << " with DNS metadata\n";
  print_engine(harvested.shard.engine);
  print_cache(harvested.shard.cache);

  const bool balanced = resolver_result.engine.balanced() &&
                        https_result.engine.balanced() &&
                        harvested.shard.engine.balanced();
  if (!balanced) {
    std::cerr << "probe: engine accounting is not balanced\n";
    return 1;
  }
  return 0;
}

int cmd_bgp_export(const Options& opt) {
  if (opt.out_path.empty()) return usage();
  const analysis::Study study{scale_of(opt)};
  std::ofstream out{opt.out_path};
  if (!out) {
    std::cerr << "cannot write " << opt.out_path << "\n";
    return 1;
  }
  const std::size_t routes = net::write_bgp_dump(out, study.model().routing());
  std::cout << "wrote " << util::with_thousands(routes) << " routes to "
            << opt.out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage();
  if (opt.command == "info") return cmd_info(opt);
  if (opt.command == "generate") return cmd_generate(opt);
  if (opt.command == "analyze") return cmd_analyze(opt);
  if (opt.command == "corrupt") return cmd_corrupt(opt);
  if (opt.command == "serve") return cmd_serve(opt);
  if (opt.command == "replay") return cmd_replay(opt);
  if (opt.command == "diff") return cmd_diff(opt);
  if (opt.command == "weeks") return cmd_weeks(opt);
  if (opt.command == "merge") return cmd_merge(opt);
  if (opt.command == "probe") return cmd_probe(opt);
  if (opt.command == "bgp-export") return cmd_bgp_export(opt);
  return usage();
}
