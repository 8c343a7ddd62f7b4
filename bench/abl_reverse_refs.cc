// ABL-1: the §2.4 design decision — "we need to maintain in each component
// of a composite object a list of reverse composite references ... This
// approach allows us to avoid a level of indirection in accessing the
// parents of a given component", at the cost of larger objects.
//
// Measurements: parents-of / ancestors-of answered from the in-object
// reverse references versus the alternative ORION rejected — inverting the
// forward references by scanning every instance.  Also reports the
// object-size overhead the paper concedes ("it causes the object size to
// increase").

#include <benchmark/benchmark.h>

#include <cstdio>

#include "query/traversal.h"
#include "workloads.h"

namespace orion::bench {
namespace {

/// The rejected design: find parents of `target` by scanning all instances
/// of the (only) referencing class and testing their forward references.
std::vector<Uid> ParentsByScan(Database& db, Uid target,
                               const std::string& attribute,
                               ClassId referencing_class) {
  std::vector<Uid> parents;
  for (Uid holder : db.objects().InstancesOf(referencing_class)) {
    const Object* obj = db.objects().Peek(holder);
    if (obj != nullptr && obj->Get(attribute).References(target)) {
      parents.push_back(holder);
    }
  }
  return parents;
}

void PrintScenario() {
  Database db;
  CorpusWorkload corpus = BuildCorpus(db, /*num_documents=*/64,
                                      /*sections_per_document=*/8,
                                      /*paragraphs_per_section=*/4,
                                      /*share_pct=*/25);
  const Uid target = corpus.sections.front();
  auto fast = ParentsOf(db.objects(), target);
  auto slow = ParentsByScan(db, target, "Sections", corpus.document);
  std::printf("=== ABL-1: reverse references stored in components ===\n");
  std::printf("corpus: %zu documents, %zu sections, %zu paragraphs\n",
              corpus.documents.size(), corpus.sections.size(),
              corpus.paragraphs.size());
  std::printf("parents-of via reverse refs: %zu parents; via full scan: %zu "
              "(must agree)\n",
              fast->size(), slow.size());
  // Object-size overhead: reverse references per component.
  size_t refs = 0;
  for (Uid s : corpus.sections) {
    refs += db.objects().Peek(s)->reverse_refs().size();
  }
  std::printf("space cost: %.2f reverse references per section "
              "(%zu bytes each incl. flags)\n\n",
              static_cast<double>(refs) / corpus.sections.size(),
              sizeof(ReverseRef));
}

void BM_ParentsOfViaReverseRefs(benchmark::State& state) {
  Database db;
  CorpusWorkload corpus =
      BuildCorpus(db, static_cast<int>(state.range(0)), 8, 4, 25);
  size_t i = 0;
  for (auto _ : state) {
    auto parents = ParentsOf(db.objects(),
                             corpus.sections[i++ % corpus.sections.size()]);
    benchmark::DoNotOptimize(parents);
  }
}
BENCHMARK(BM_ParentsOfViaReverseRefs)
    ->Arg(16)
    ->Arg(128)
    ->Arg(1024)
    ->Iterations(20000);

void BM_ParentsOfViaScan(benchmark::State& state) {
  Database db;
  CorpusWorkload corpus =
      BuildCorpus(db, static_cast<int>(state.range(0)), 8, 4, 25);
  size_t i = 0;
  for (auto _ : state) {
    auto parents =
        ParentsByScan(db, corpus.sections[i++ % corpus.sections.size()],
                      "Sections", corpus.document);
    benchmark::DoNotOptimize(parents);
  }
}
BENCHMARK(BM_ParentsOfViaScan)->Arg(16)->Arg(128)->Arg(1024)->Iterations(200);

void BM_AncestorsOfViaReverseRefs(benchmark::State& state) {
  Database db;
  CorpusWorkload corpus =
      BuildCorpus(db, static_cast<int>(state.range(0)), 8, 4, 25);
  size_t i = 0;
  for (auto _ : state) {
    auto ancestors = AncestorsOf(
        db.objects(), corpus.paragraphs[i++ % corpus.paragraphs.size()]);
    benchmark::DoNotOptimize(ancestors);
  }
}
BENCHMARK(BM_AncestorsOfViaReverseRefs)
    ->Arg(16)
    ->Arg(128)
    ->Iterations(20000);

}  // namespace
}  // namespace orion::bench

int main(int argc, char** argv) {
  orion::bench::PrintScenario();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
