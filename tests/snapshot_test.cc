#include "core/snapshot.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "invariants.h"
#include "query/traversal.h"

namespace orion {
namespace {

/// Builds a database exercising every serialized feature: classes with
/// inheritance + dropped classes, all reference kinds, versions with
/// derivations and ref counts, deferred type changes mid-flight, grants,
/// and varied value types.
void BuildRichDatabase(Database& db, Uid* out_doc, Uid* out_version) {
  ClassId para = *db.MakeClass(ClassSpec{.name = "Paragraph"});
  (void)para;
  ClassId doomed = *db.MakeClass(ClassSpec{.name = "Doomed"});
  ClassId sec = *db.MakeClass(ClassSpec{
      .name = "Section",
      .attributes = {CompositeAttr("Content", "Paragraph", false, true,
                                   true)}});
  ClassId doc = *db.MakeClass(ClassSpec{
      .name = "Document",
      .superclasses = {},
      .attributes = {
          WeakAttr("Title", "string"),
          WeakAttr("Pages", "integer"),
          WeakAttr("Rating", "real"),
          CompositeAttr("Sections", "Section", false, true, true),
          CompositeAttr("Annotations", "Paragraph", true, true, true)}});
  ClassId memo =
      *db.MakeClass(ClassSpec{.name = "Memo", .superclasses = {"Document"}});
  (void)memo;
  ClassId design = *db.MakeClass(ClassSpec{
      .name = "Design",
      .attributes = {CompositeAttr("Part", "Design", true, false),
                     WeakAttr("Label", "string")},
      .versionable = true});
  (void)design;
  ASSERT_TRUE(db.DropClass(doomed).ok());  // leaves a dropped id slot

  Uid d = *db.Make("Document", {},
                   {{"Title", Value::String("hello, {world}\nline2")},
                    {"Pages", Value::Integer(42)},
                    {"Rating", Value::Real(4.5)}});
  Uid s1 = *db.objects().Make(sec, {{d, "Sections"}}, {});
  (void)*db.objects().Make(para, {{s1, "Content"}}, {});
  (void)*db.objects().Make(para, {{d, "Annotations"}}, {});

  Uid v0 = *db.Make("Design", {}, {{"Label", Value::String("rev0")}});
  Uid part0 = *db.Make("Design");
  ASSERT_TRUE(db.objects()
                  .MakeComponent(part0, v0, "Part")
                  .ok());
  Uid v1 = *db.versions().Derive(v0);
  ASSERT_TRUE(db.versions()
                  .SetDefaultVersion(db.objects().Peek(v0)->generic(), v0)
                  .ok());

  // A deferred type change left pending for some instances.
  ASSERT_TRUE(db.ChangeAttributeType(doc, "Sections", true, false, false,
                                     ChangeMode::kDeferred)
                  .ok());

  ASSERT_TRUE(db.authz()
                  .GrantOnObject("sam", d, AuthSpec{true, true,
                                                    AuthType::kRead})
                  .ok());
  ASSERT_TRUE(db.authz()
                  .GrantOnClass("eve", sec, AuthSpec{false, false,
                                                     AuthType::kWrite})
                  .ok());
  *out_doc = d;
  *out_version = v1;
}

TEST(SnapshotTest, RoundTripPreservesEverythingObservable) {
  Database original;
  Uid doc, version;
  BuildRichDatabase(original, &doc, &version);
  const std::string snapshot = SaveSnapshot(original);

  Database restored;
  ASSERT_TRUE(LoadSnapshot(restored, snapshot).ok());

  // Same objects, same classes.
  EXPECT_EQ(restored.objects().AllUids(), original.objects().AllUids());
  EXPECT_EQ(restored.schema().live_class_count(),
            original.schema().live_class_count());
  EXPECT_FALSE(restored.schema().FindClass("Doomed").ok());

  // Values round-trip, including the nasty string.
  EXPECT_EQ(restored.objects().Peek(doc)->Get("Title"),
            Value::String("hello, {world}\nline2"));
  EXPECT_EQ(restored.objects().Peek(doc)->Get("Pages"), Value::Integer(42));
  EXPECT_EQ(restored.objects().Peek(doc)->Get("Rating"), Value::Real(4.5));

  // Structure round-trips: same components, same parents.
  auto orig_comps = ComponentsOf(original.objects(), doc);
  auto rest_comps = ComponentsOf(restored.objects(), doc);
  ASSERT_TRUE(orig_comps.ok());
  ASSERT_TRUE(rest_comps.ok());
  EXPECT_EQ(*orig_comps, *rest_comps);

  // Version registry round-trips: same versions, same pinned default.
  const Uid generic = restored.objects().Peek(version)->generic();
  EXPECT_EQ(*restored.versions().VersionsOf(generic),
            *original.versions().VersionsOf(generic));
  EXPECT_EQ(*restored.versions().DefaultVersion(generic),
            *original.versions().DefaultVersion(generic));

  // Grants round-trip.
  EXPECT_EQ(restored.authz().grant_count(), original.authz().grant_count());
  EXPECT_TRUE(*restored.authz().CheckAccess("sam", doc, AuthType::kRead));
  EXPECT_FALSE(*restored.authz().CheckAccess("eve", doc, AuthType::kRead));

  // The whole restored database satisfies the structural invariants
  // (which also forces the pending deferred change to replay correctly).
  ORION_EXPECT_CONSISTENT(restored);

  // Saving an *untouched* fresh load is byte-identical — the format is
  // canonical.  (The `restored` instance above no longer qualifies: the
  // queries ran CC catch-up, which is a legitimate state change.)
  Database untouched;
  ASSERT_TRUE(LoadSnapshot(untouched, snapshot).ok());
  EXPECT_EQ(SaveSnapshot(untouched), snapshot);
}

TEST(SnapshotTest, DeferredChangesStillApplyAfterRestore) {
  Database original;
  Uid doc, version;
  BuildRichDatabase(original, &doc, &version);
  // The deferred I3 change has not been applied to this section yet.
  Database restored;
  ASSERT_TRUE(LoadSnapshot(restored, SaveSnapshot(original)).ok());
  auto sections = ComponentsOf(restored.objects(), doc,
                               TraversalOptions{.level = 1});
  ASSERT_TRUE(sections.ok());
  for (Uid s : *sections) {
    Object* obj = restored.objects().Peek(s);
    if (obj->reverse_refs().empty()) {
      continue;
    }
    ASSERT_TRUE(restored.objects().Access(s).ok());
  }
  // Schema agrees: Sections is now independent.
  ClassId doc_cls = *restored.schema().FindClass("Document");
  EXPECT_FALSE(*restored.schema().DependentCompositeP(doc_cls, "Sections"));
}

TEST(SnapshotTest, LifeGoesOnAfterRestore) {
  // New UIDs, classes, versions and deletions keep working after a load —
  // counters were fast-forwarded.
  Database original;
  Uid doc, version;
  BuildRichDatabase(original, &doc, &version);
  Database db;
  ASSERT_TRUE(LoadSnapshot(db, SaveSnapshot(original)).ok());

  Uid fresh = *db.Make("Document", {}, {{"Title", Value::String("new")}});
  EXPECT_GT(fresh.raw, db.objects().AllUids()[db.objects().AllUids().size() -
                                              2]
                           .raw -
                           1);
  Uid v2 = *db.versions().Derive(version);
  EXPECT_TRUE(db.objects().Exists(v2));
  ASSERT_TRUE(db.DeleteObject(doc).ok());
  EXPECT_FALSE(db.objects().Exists(doc));
  ASSERT_TRUE(db.MakeClass(ClassSpec{.name = "Fresh"}).ok());
  ORION_EXPECT_CONSISTENT(db);
}

TEST(SnapshotTest, FileRoundTrip) {
  Database original;
  Uid doc, version;
  BuildRichDatabase(original, &doc, &version);
  const std::string path = ::testing::TempDir() + "orion_snapshot_test.txt";
  ASSERT_TRUE(SaveSnapshotToFile(original, path).ok());
  Database restored;
  ASSERT_TRUE(LoadSnapshotFromFile(restored, path).ok());
  EXPECT_EQ(restored.objects().object_count(),
            original.objects().object_count());
  std::remove(path.c_str());
  Database nobody;
  EXPECT_EQ(LoadSnapshotFromFile(nobody, path).code(),
            StatusCode::kNotFound);
}

TEST(SnapshotTest, RejectsGarbageAndNonEmptyTargets) {
  Database db;
  EXPECT_EQ(LoadSnapshot(db, "not a snapshot").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadSnapshot(db, "orion-snapshot 1\nwat 1 2 3\nend\n").code(),
            StatusCode::kInvalidArgument);
  // Truncated snapshot (no 'end').
  EXPECT_EQ(LoadSnapshot(db, "orion-snapshot 1\n").code(),
            StatusCode::kInvalidArgument);

  Database populated;
  ASSERT_TRUE(populated.MakeClass(ClassSpec{.name = "X"}).ok());
  EXPECT_EQ(LoadSnapshot(populated, "orion-snapshot 1\nend\n").code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, InheritanceOverridesRoundTrip) {
  Database db;
  ClassId p1 = *db.MakeClass(ClassSpec{
      .name = "P1", .attributes = {WeakAttr("x", "integer")}});
  (void)p1;
  ClassId p2 = *db.MakeClass(ClassSpec{
      .name = "P2", .attributes = {WeakAttr("x", "string")}});
  ClassId child = *db.MakeClass(
      ClassSpec{.name = "Child", .superclasses = {"P1", "P2"}});
  ASSERT_TRUE(db.ChangeAttributeInheritance(child, "x", p2).ok());

  Database restored;
  ASSERT_TRUE(LoadSnapshot(restored, SaveSnapshot(db)).ok());
  EXPECT_EQ(*restored.schema().DefiningClass(child, "x"), p2);
  EXPECT_EQ(restored.schema().ResolveAttribute(child, "x")->domain,
            "string");
}

TEST(SnapshotTest, EmptyDatabaseRoundTrips) {
  Database empty;
  Database restored;
  ASSERT_TRUE(LoadSnapshot(restored, SaveSnapshot(empty)).ok());
  EXPECT_EQ(restored.objects().object_count(), 0u);
  EXPECT_EQ(restored.schema().live_class_count(), 0u);
}

TEST(SnapshotTest, PropertyRandomDatabaseRoundTrips) {
  // Snapshot of a randomly built corpus restores to an invariant-clean,
  // canonically re-serializable database.
  for (uint64_t seed : {1u, 99u}) {
    Database db;
    ClassId node = *db.MakeClass(ClassSpec{
        .name = "Node",
        .attributes = {
            CompositeAttr("DX", "Node", true, true, true),
            CompositeAttr("IS", "Node", false, false, true),
            WeakAttr("Tag", "string"),
        }});
    uint64_t state = seed | 1;
    auto next = [&]() {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return state >> 17;
    };
    std::vector<Uid> live;
    for (int i = 0; i < 60; ++i) {
      std::vector<ParentBinding> parents;
      if (!live.empty() && next() % 2 == 0) {
        parents.push_back(ParentBinding{
            live[next() % live.size()], next() % 2 == 0 ? "DX" : "IS"});
      }
      auto made = db.objects().Make(node, parents, {});
      if (made.ok()) {
        live.push_back(*made);
        const std::string tag = std::string("t").append(
            std::to_string(next() % 10));
        (void)db.objects().SetAttribute(*made, "Tag", Value::String(tag));
      }
    }
    const std::string snap = SaveSnapshot(db);
    Database restored;
    ASSERT_TRUE(LoadSnapshot(restored, snap).ok());
    ORION_EXPECT_CONSISTENT(restored);
    EXPECT_EQ(SaveSnapshot(restored), snap);
  }
}

}  // namespace
}  // namespace orion
