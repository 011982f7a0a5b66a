//===- perfbench/src/Spans.h - Spans around calls into the layers ---------===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-memory span recorder for the traced benchmark run. Every call the
/// benchmark makes into a layer's public functions is wrapped in a span
/// (layer, name, start, end, parent); spans stay in memory and are written
/// out once, when the benchmark ends. A disabled recorder takes no
/// timestamps, so the untraced run pays nothing for the call sites.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_PERFBENCH_SPANS_H
#define ICORES_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Layer = "";
  const char *Name = "";
  double StartS = 0.0; ///< Seconds since the recorder was created.
  double EndS = 0.0;
  int Parent = -1;     ///< Index of the enclosing span, -1 for a root.

  double ms() const { return (EndS - StartS) * 1e3; }
};

class SpanRecorder {
public:
  explicit SpanRecorder(bool On)
      : On(On), Origin(std::chrono::steady_clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its index, or
  /// -1 when recording is off.
  int open(const char *Layer, const char *Name) {
    if (!On)
      return -1;
    Span S;
    S.Layer = Layer;
    S.Name = Name;
    S.Parent = Open.empty() ? -1 : Open.back();
    S.StartS = now();
    Spans.push_back(S);
    Open.push_back(static_cast<int>(Spans.size()) - 1);
    return Open.back();
  }

  void close(int Id) {
    if (Id < 0)
      return;
    Spans[static_cast<size_t>(Id)].EndS = now();
    Open.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Milliseconds of each layer's self time: span durations minus the part
  /// covered by their child spans.
  std::map<std::string, double> selfMsByLayer() const {
    std::vector<double> ChildMs(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildMs[static_cast<size_t>(S.Parent)] += S.ms();
    std::map<std::string, double> Self;
    for (size_t I = 0; I != Spans.size(); ++I)
      Self[Spans[I].Layer] += Spans[I].ms() - ChildMs[I];
    return Self;
  }

  /// Writes the spans as a JSON array of {id, parent, layer, name,
  /// start_s, end_s}. Returns false when the file cannot be written.
  bool writeJson(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "[\n");
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "  {\"id\": %zu, \"parent\": %d, \"layer\": \"%s\", "
                   "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                   I, S.Parent, S.Layer, S.Name, S.StartS, S.EndS,
                   I + 1 == Spans.size() ? "" : ",");
    }
    std::fprintf(F, "]\n");
    return std::fclose(F) == 0;
  }

private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Origin)
        .count();
  }

  bool On;
  std::chrono::steady_clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span: opens on construction, closes on scope exit.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, const char *Layer, const char *Name)
      : R(R), Id(R.open(Layer, Name)) {}
  ~ScopedSpan() { R.close(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder &R;
  int Id;
};

} // namespace perfbench

#endif // ICORES_PERFBENCH_SPANS_H
