/**
 * @file
 * Benchmark-side spans: wall-clock intervals recorded around calls into
 * the simulator's public functions, kept in memory and attributed as
 * self time when the benchmark ends.
 *
 * A span's self time is its duration minus the part its children cover.
 * Children may run concurrently on `fanout` threads (the sweep service's
 * runner threads); their durations then cover duration / fanout of the
 * parent's wall time, and their own self time is weighted by 1 / fanout
 * when it is added up as wall time. With that weighting the self times
 * of a tree of spans sum exactly to its root's duration.
 */

#ifndef PILOTRF_PERFBENCH_SPANS_HH
#define PILOTRF_PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

class Spans
{
  public:
    explicit Spans(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    /** Open a span; returns its id, or -1 when tracing is off. */
    int begin(const std::string &name, int parent = -1, unsigned fanout = 1)
    {
        if (!on)
            return -1;
        const auto now = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        spans.push_back({name, parent, fanout, now, now});
        return int(spans.size() - 1);
    }

    void end(int id)
    {
        if (id < 0)
            return;
        const auto now = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        spans[std::size_t(id)].stop = now;
    }

    /** Record a finished span whose interval was timed elsewhere. */
    int add(const std::string &name, int parent, Clock::time_point start,
            Clock::time_point stop)
    {
        if (!on)
            return -1;
        std::lock_guard<std::mutex> lock(mu);
        spans.push_back({name, parent, 1, start, stop});
        return int(spans.size() - 1);
    }

    /** Wall-time-weighted self seconds per span name (see file doc). */
    std::map<std::string, double> selfSeconds() const
    {
        std::lock_guard<std::mutex> lock(mu);
        std::vector<double> childCover(spans.size(), 0.0);
        for (const Span &s : spans)
            if (s.parent >= 0)
                childCover[std::size_t(s.parent)] +=
                    secondsBetween(s.start, s.stop);
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            double weight = 1.0;
            for (int p = s.parent; p >= 0; p = spans[std::size_t(p)].parent)
                weight /= double(spans[std::size_t(p)].fanout);
            const double self = secondsBetween(s.start, s.stop) -
                                childCover[i] / double(s.fanout);
            out[s.name] += self * weight;
        }
        return out;
    }

    /** Write every span as a Chrome trace-event document (one track per
     *  span tree root), microseconds from the first span. */
    void writeChromeTrace(std::ostream &os) const
    {
        std::lock_guard<std::mutex> lock(mu);
        os << "{\"traceEvents\":[";
        const Clock::time_point t0 =
            spans.empty() ? Clock::time_point{} : spans.front().start;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            int root = int(i);
            while (spans[std::size_t(root)].parent >= 0)
                root = spans[std::size_t(root)].parent;
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << root
               << ",\"ts\":" << secondsBetween(t0, s.start) * 1e6
               << ",\"dur\":" << secondsBetween(s.start, s.stop) * 1e6
               << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
               << "}}";
        }
        os << "\n]}\n";
    }

  private:
    struct Span
    {
        std::string name;
        int parent;
        unsigned fanout;
        Clock::time_point start;
        Clock::time_point stop;
    };

    bool on;
    mutable std::mutex mu;
    std::vector<Span> spans;
};

/** RAII span: begin() on construction, end() on destruction. */
class Scope
{
  public:
    Scope(Spans &spans, const std::string &name, int parent = -1,
          unsigned fanout = 1)
        : s(spans), id(spans.begin(name, parent, fanout))
    {
    }
    ~Scope() { s.end(id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int get() const { return id; }

  private:
    Spans &s;
    int id;
};

} // namespace perfbench

#endif // PILOTRF_PERFBENCH_SPANS_HH
