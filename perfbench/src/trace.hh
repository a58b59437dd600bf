/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded from
 * the benchmark's own code around its calls into each layer, kept in a
 * vector, and written out once at exit. When tracing is off every call
 * is a branch on one bool, so the untraced runs pay (almost) nothing.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics.hh"

namespace perfbench
{

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Single-threaded span recorder (the bench drives load from one
 *  thread; the replica loops are never traced from here). */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** Pause or resume recording (between phases only). */
    void enable(bool on) { on_ = on; }

    /** Pre-size the span store so recording never stops to reallocate
     *  mid-phase. */
    void reserve(size_t spans) { spans_.reserve(spans); }

    /** Stable id for span name @p name. */
    uint32_t
    nameId(const std::string &name)
    {
        for (size_t i = 0; i < names_.size(); ++i)
            if (names_[i] == name)
                return static_cast<uint32_t>(i);
        names_.push_back(name);
        return static_cast<uint32_t>(names_.size() - 1);
    }

    /** Open a span under the innermost open one. @return its index,
     *  -1 when tracing is off. */
    int64_t
    begin(uint32_t name, uint64_t token = 0)
    {
        if (!on_)
            return -1;
        Span s;
        s.name = name;
        s.parent = open_.empty() ? -1 : open_.back();
        s.token = token;
        s.start = nowNs();
        spans_.push_back(s);
        open_.push_back(static_cast<int64_t>(spans_.size() - 1));
        return open_.back();
    }

    /** Close span @p idx (the innermost open one). */
    void
    end(int64_t idx, uint32_t count = 1)
    {
        if (idx < 0)
            return;
        Span &s = spans_[static_cast<size_t>(idx)];
        s.end = nowNs();
        s.count = count;
        if (!open_.empty() && open_.back() == idx)
            open_.pop_back();
    }

    /** Record an already-timed span under the innermost open one. */
    void
    add(uint32_t name, uint64_t start, uint64_t end, uint64_t token = 0,
        uint32_t count = 1)
    {
        if (!on_)
            return;
        Span s;
        s.name = name;
        s.parent = open_.empty() ? -1 : open_.back();
        s.token = token;
        s.start = start;
        s.end = end;
        s.count = count;
        spans_.push_back(s);
    }

    const std::vector<Span> &spans() const { return spans_; }
    const std::string &name(uint32_t id) const { return names_[id]; }

    /** Write every span as CSV. @return false on an I/O error. */
    bool
    writeCsv(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "id,name,start_ns,end_ns,parent,token,count\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f, "%zu,%s,%llu,%llu,%lld,%llu,%u\n", i,
                         names_[s.name].c_str(),
                         static_cast<unsigned long long>(s.start),
                         static_cast<unsigned long long>(s.end),
                         static_cast<long long>(s.parent),
                         static_cast<unsigned long long>(s.token), s.count);
        }
        return std::fclose(f) == 0;
    }

  private:
    bool on_;
    std::vector<std::string> names_;
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tracer, uint32_t name, uint64_t token = 0)
        : tracer_(tracer), idx_(tracer.begin(name, token))
    {}
    ~Scope() { tracer_.end(idx_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int64_t idx_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
