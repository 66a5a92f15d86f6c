// Metadata catalog (MCAT) unit tests: namespace, attributes, listing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "srb/mcat.hpp"

namespace remio::srb {
namespace {

TEST(Mcat, NormalizePaths) {
  EXPECT_EQ(Mcat::normalize("/a//b/c/"), "/a/b/c");
  EXPECT_EQ(Mcat::normalize("a/b"), "/a/b");
  EXPECT_EQ(Mcat::normalize("/"), "/");
  EXPECT_EQ(Mcat::normalize(""), "/");
  EXPECT_EQ(Mcat::normalize("///"), "/");
}

TEST(Mcat, ParentOf) {
  EXPECT_EQ(Mcat::parent_of("/a/b/c"), "/a/b");
  EXPECT_EQ(Mcat::parent_of("/a"), "/");
  EXPECT_EQ(Mcat::parent_of("/"), "/");
}

TEST(Mcat, RootExists) {
  Mcat m;
  EXPECT_TRUE(m.collection_exists("/"));
  EXPECT_FALSE(m.collection_exists("/nope"));
}

TEST(Mcat, MakeCollectionCreatesParents) {
  Mcat m;
  EXPECT_TRUE(m.make_collection("/home/demo/data"));
  EXPECT_TRUE(m.collection_exists("/home"));
  EXPECT_TRUE(m.collection_exists("/home/demo"));
  EXPECT_TRUE(m.collection_exists("/home/demo/data"));
}

TEST(Mcat, RegisterRequiresParent) {
  Mcat m;
  EXPECT_FALSE(m.register_object("/no/such/obj", "disk").has_value());
  m.make_collection("/no/such");
  EXPECT_TRUE(m.register_object("/no/such/obj", "disk").has_value());
}

TEST(Mcat, RegisterRejectsDuplicates) {
  Mcat m;
  m.make_collection("/c");
  const auto id1 = m.register_object("/c/x", "disk");
  ASSERT_TRUE(id1.has_value());
  EXPECT_FALSE(m.register_object("/c/x", "disk").has_value());
  EXPECT_EQ(m.resolve("/c/x"), id1);
  EXPECT_EQ(m.object_count(), 1u);
}

TEST(Mcat, ObjectShadowsCollectionName) {
  Mcat m;
  m.make_collection("/c");
  ASSERT_TRUE(m.register_object("/c/x", "disk").has_value());
  EXPECT_FALSE(m.make_collection("/c/x"));
  EXPECT_FALSE(m.register_object("/c", "disk").has_value());  // collection taken
}

TEST(Mcat, IdsAllocatedOnlyBySuccessfulRegister) {
  Mcat m;
  m.make_collection("/c");
  const auto a = m.register_object("/c/a", "disk");
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(m.register_object("/c/a", "disk").has_value());     // taken
  EXPECT_FALSE(m.register_object("/none/b", "disk").has_value());  // no parent
  EXPECT_FALSE(m.register_object("/c", "disk").has_value());  // a collection
  EXPECT_EQ(m.register_object("/c/b", "disk"), *a + 1);
  m.unregister_object("/c/a");
  EXPECT_EQ(m.register_object("/c/a", "disk"), *a + 2);  // never reused
}

TEST(Mcat, ObjectVerbsDoNotSeeCollections) {
  Mcat m;
  m.make_collection("/c/sub");
  EXPECT_FALSE(m.resolve("/c/sub").has_value());
  EXPECT_FALSE(m.meta("/c/sub").has_value());
  EXPECT_FALSE(m.set_attr("/c/sub", "k", "v"));
  EXPECT_FALSE(m.get_attr("/c/sub", "k").has_value());
  EXPECT_FALSE(m.unregister_object("/c/sub").has_value());
  EXPECT_TRUE(m.collection_exists("/c/sub"));
  EXPECT_EQ(m.object_count(), 0u);
}

TEST(Mcat, UnregisterFreesName) {
  Mcat m;
  m.make_collection("/c");
  const auto id = m.register_object("/c/x", "disk");
  EXPECT_EQ(m.unregister_object("/c/x"), id);
  EXPECT_FALSE(m.resolve("/c/x").has_value());
  EXPECT_FALSE(m.unregister_object("/c/x").has_value());
  EXPECT_TRUE(m.register_object("/c/x", "disk").has_value());
}

TEST(Mcat, Attributes) {
  Mcat m;
  m.make_collection("/c");
  m.register_object("/c/x", "disk");
  EXPECT_TRUE(m.set_attr("/c/x", "codec", "lzmini"));
  EXPECT_EQ(m.get_attr("/c/x", "codec").value(), "lzmini");
  EXPECT_FALSE(m.get_attr("/c/x", "missing").has_value());
  EXPECT_FALSE(m.set_attr("/c/none", "k", "v"));
  m.set_attr("/c/x", "codec", "rle");  // overwrite
  EXPECT_EQ(m.get_attr("/c/x", "codec").value(), "rle");
}

TEST(Mcat, ListImmediateChildrenOnly) {
  Mcat m;
  m.make_collection("/c/deep");
  m.register_object("/c/x", "disk");
  m.register_object("/c/deep/y", "disk");
  const auto kids = m.list("/c");
  ASSERT_EQ(kids.size(), 2u);  // "/c/x" object + "/c/deep" collection
  EXPECT_NE(std::find(kids.begin(), kids.end(), "/c/x"), kids.end());
  EXPECT_NE(std::find(kids.begin(), kids.end(), "/c/deep"), kids.end());
  const auto root = m.list("/");
  EXPECT_EQ(root.size(), 1u);  // just "/c"
}

TEST(Mcat, ListOrdersObjectsThenCollections) {
  Mcat m;
  m.make_collection("/c/b");
  m.make_collection("/c/a");
  m.register_object("/c/z", "disk");
  m.register_object("/c/y", "disk");
  EXPECT_EQ(m.list("/c"),
            (std::vector<std::string>{"/c/y", "/c/z", "/c/a", "/c/b"}));
}

TEST(Mcat, MetaCarriesResource) {
  Mcat m;
  m.make_collection("/c");
  m.register_object("/c/x", "orion-disk");
  const auto meta = m.meta("/c/x");
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->resource, "orion-disk");
  EXPECT_NE(meta->id, kInvalidObject);
}

}  // namespace
}  // namespace remio::srb
