// Tests for the device model, builders and the text-format parser.
#include <gtest/gtest.h>

#include "device/builders.hpp"
#include "device/parser.hpp"
#include "support/check.hpp"

namespace rfp::device {
namespace {

TEST(Rect, GeometryBasics) {
  const Rect r{2, 1, 3, 2};
  EXPECT_EQ(r.x2(), 5);
  EXPECT_EQ(r.y2(), 3);
  EXPECT_EQ(r.area(), 6);
  EXPECT_TRUE(r.contains(2, 1));
  EXPECT_TRUE(r.contains(4, 2));
  EXPECT_FALSE(r.contains(5, 2));
  EXPECT_DOUBLE_EQ(r.centerX(), 3.5);
}

TEST(Rect, OverlapAndIntersection) {
  const Rect a{0, 0, 4, 4}, b{3, 3, 4, 4}, c{4, 0, 2, 2};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
  const Rect i = a.intersect(b);
  EXPECT_EQ(i, (Rect{3, 3, 1, 1}));
  EXPECT_TRUE(a.intersect(c).empty());
}

TEST(Device, Fx70tMatchesPaperResourceMix) {
  const Device dev = virtex5FX70T();
  EXPECT_EQ(dev.width(), 44);
  EXPECT_EQ(dev.height(), 8);
  EXPECT_TRUE(dev.isColumnar());
  const std::vector<int> totals = dev.totalTiles(false);
  EXPECT_EQ(totals[static_cast<std::size_t>(dev.tileTypeId("DSP"))], 16);   // 128 DSP48E
  EXPECT_EQ(totals[static_cast<std::size_t>(dev.tileTypeId("BRAM"))], 40);  // 160 BRAM36 raw
  EXPECT_EQ(dev.forbidden().size(), 1u);  // PPC440
}

TEST(Device, PaperFrameCountsPerTileType) {
  const Device dev = virtex5FX70T();
  EXPECT_EQ(dev.tileType(dev.tileTypeId("CLB")).frames, 36);
  EXPECT_EQ(dev.tileType(dev.tileTypeId("BRAM")).frames, 30);
  EXPECT_EQ(dev.tileType(dev.tileTypeId("DSP")).frames, 28);
}

TEST(Device, TableOneFrameArithmetic) {
  // The paper's Table I last column is reproduced exactly by the model:
  // matched filter 25 CLB + 5 DSP tiles = 25·36 + 5·28 = 1040 frames, etc.
  EXPECT_EQ(25 * 36 + 5 * 28, 1040);
  EXPECT_EQ(7 * 36 + 1 * 28, 280);
  EXPECT_EQ(5 * 36 + 2 * 30, 240);
  EXPECT_EQ(12 * 36 + 1 * 30, 462);
  EXPECT_EQ(55 * 36 + 2 * 30 + 5 * 28, 2180);
}

TEST(Device, HistogramAndFrames) {
  const Device dev = columnarFromPattern("t", "CBD", 2);
  const std::vector<int> hist = dev.tileHistogram(Rect{0, 0, 3, 2});
  EXPECT_EQ(hist[0], 2);
  EXPECT_EQ(hist[1], 2);
  EXPECT_EQ(hist[2], 2);
  EXPECT_EQ(dev.framesInRect(Rect{0, 0, 3, 1}), 36 + 30 + 28);
  EXPECT_EQ(dev.totalFrames(), 2 * (36 + 30 + 28));
}

TEST(Device, ForbiddenAreaQueries) {
  Device dev = uniformDevice(6, 4);
  dev.addForbidden(Rect{2, 1, 2, 2}, "hard");
  EXPECT_TRUE(dev.inForbidden(2, 1));
  EXPECT_TRUE(dev.inForbidden(3, 2));
  EXPECT_FALSE(dev.inForbidden(1, 1));
  EXPECT_TRUE(dev.rectHitsForbidden(Rect{0, 0, 3, 2}));
  EXPECT_FALSE(dev.rectHitsForbidden(Rect{0, 0, 2, 4}));
  EXPECT_THROW(dev.addForbidden(Rect{5, 0, 3, 1}), CheckError);
}

TEST(Device, UsableTotalsExcludeForbidden) {
  Device dev = uniformDevice(4, 4);
  dev.addForbidden(Rect{0, 0, 2, 2}, "f");
  EXPECT_EQ(dev.totalTiles(false)[0], 16);
  EXPECT_EQ(dev.totalTiles(true)[0], 12);
}

TEST(Device, ColumnSignature) {
  const Device dev = columnarFromPattern("t", "CCBDC", 3);
  const std::vector<int> sig = dev.columnSignature(Rect{1, 0, 3, 2});
  ASSERT_EQ(sig.size(), 3u);
  EXPECT_EQ(sig[0], 0);
  EXPECT_EQ(sig[1], 1);
  EXPECT_EQ(sig[2], 2);
}

TEST(Device, BrokenColumnDeviceIsNotColumnar) {
  const Device dev = brokenColumnDevice();
  EXPECT_FALSE(dev.isColumnar());
  EXPECT_THROW((void)dev.columnType(2), CheckError);
}

TEST(Device, GridConstructorValidation) {
  std::vector<TileType> types = virtex5TileTypes();
  EXPECT_THROW(Device("bad", 2, 2, types, std::vector<int>{0, 0, 0}, true), CheckError);
  EXPECT_THROW(Device("bad", 2, 2, types, std::vector<int>{0, 0, 0, 9}, true), CheckError);
}

TEST(Parser, RoundTripsColumnarDevice) {
  const Device dev = virtex5FX70T();
  const std::string text = formatDevice(dev);
  const Device back = parseDevice(text);
  EXPECT_EQ(back.name(), dev.name());
  EXPECT_EQ(back.width(), dev.width());
  EXPECT_EQ(back.height(), dev.height());
  for (int x = 0; x < dev.width(); ++x)
    EXPECT_EQ(back.tileType(back.columnType(x)).name, dev.tileType(dev.columnType(x)).name);
  ASSERT_EQ(back.forbidden().size(), dev.forbidden().size());
  EXPECT_EQ(back.forbidden()[0], dev.forbidden()[0]);
}

TEST(Parser, ParsesMinimalDevice) {
  const Device dev = parseDevice(R"(
# comment
device demo
rows 4
tiletype C CLB frames=36 CLB=20
tiletype B BRAM frames=30 BRAM36=4
columns CCBCC
forbidden 1 1 2 2 hardblock
)");
  EXPECT_EQ(dev.name(), "demo");
  EXPECT_EQ(dev.width(), 5);
  EXPECT_EQ(dev.height(), 4);
  EXPECT_EQ(dev.tileTypeId("BRAM"), 1);
  EXPECT_EQ(dev.columnType(2), 1);
  EXPECT_EQ(dev.tileType(1).resources.at("BRAM36"), 4);
  EXPECT_TRUE(dev.inForbidden(2, 2));
}

TEST(Parser, RejectsMalformedInput) {
  EXPECT_THROW(parseDevice("rows 4\ncolumns CC\n"), CheckError);  // no tiletypes
  EXPECT_THROW(parseDevice("tiletype C CLB frames=36\ncolumns CX\nrows 2\n"), CheckError);
  EXPECT_THROW(parseDevice("tiletype C CLB frames=36\ncolumns CC\n"), CheckError);  // no rows
  EXPECT_THROW(parseDevice("tiletype C CLB frames=0\ncolumns C\nrows 1\n"), CheckError);
  EXPECT_THROW(parseDevice("bogus keyword\n"), CheckError);

  // Integers are whole tokens in range: a malformed one is a located
  // CheckError, never a truncated value or a bare std::stoi exception.
  const auto rejects = [](const std::string& text, const std::string& what) {
    try {
      (void)parseDevice(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped error '" << e.what() << "' for: " << text;
    }
  };
  const std::string types = "tiletype C CLB frames=36\ncolumns CC\n";
  rejects(types + "rows 2.5\n", "line 3: rows '2.5' must be an integer");
  rejects(types + "rows x\n", "line 3: rows 'x' must be an integer");
  rejects(types + "rows 99999999999\n", "line 3: rows '99999999999' must be an integer");
  rejects("tiletype C CLB frames=3e1\ncolumns C\nrows 1\n",
          "line 1: frames '3e1' must be an integer");
  rejects("tiletype C CLB frames=36 luts=1.5\ncolumns C\nrows 1\n",
          "line 1: luts count '1.5' must be an integer");
  rejects(types + "rows 4\nforbidden 0 1x 1 1\n", "line 4: forbidden y '1x' must be an integer");
  rejects(types + "rows 4\nforbidden -1 0 1 1\n", "line 4: forbidden x '-1' must be an integer");
}

TEST(Builders, Virtex7StyleIsColumnarAndLarge) {
  const Device dev = virtex7Style();
  EXPECT_TRUE(dev.isColumnar());
  EXPECT_GT(dev.width(), 80);
  EXPECT_GT(dev.totalFrames(), virtex5FX70T().totalFrames());
}

}  // namespace
}  // namespace rfp::device
