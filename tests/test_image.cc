/**
 * @file
 * Unit tests for the image utilities.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "apps/common/image.hh"

using namespace vp;

TEST(Image, TestImageIsDeterministic)
{
    RgbImage a = makeTestImage(64, 48, 7);
    RgbImage b = makeTestImage(64, 48, 7);
    EXPECT_EQ(referenceGrayscale(a).checksum(),
              referenceGrayscale(b).checksum());
}

TEST(Image, DifferentSeedsDiffer)
{
    RgbImage a = makeTestImage(64, 48, 7);
    RgbImage b = makeTestImage(64, 48, 8);
    EXPECT_NE(referenceGrayscale(a).checksum(),
              referenceGrayscale(b).checksum());
}

TEST(Image, FaceMarkersChangePixels)
{
    RgbImage plain = makeTestImage(64, 64, 3);
    RgbImage marked = makeTestImage(64, 64, 3, {{32, 32}});
    EXPECT_NE(referenceGrayscale(plain).checksum(),
              referenceGrayscale(marked).checksum());
    // Frame pixels of the marker are bright.
    EXPECT_EQ(marked.at(32 - 11, 32, 0), 240);
    // Interior is dark.
    EXPECT_EQ(marked.at(32, 32, 0), 60);
}

TEST(Image, GrayscaleUsesLumaWeights)
{
    RgbImage img(2, 1);
    img.at(0, 0, 0) = 255; // pure red
    img.at(1, 0, 1) = 255; // pure green
    GrayImage g = referenceGrayscale(img);
    EXPECT_EQ(g.at(0, 0), 255 * 299 / 1000);
    EXPECT_EQ(g.at(1, 0), 255 * 587 / 1000);
}

TEST(Image, HistEqSpreadsDynamicRange)
{
    GrayImage img(16, 16);
    // Narrow band of values 100..107.
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            img.at(x, y) = static_cast<std::uint8_t>(100 + (x % 8));
    GrayImage eq = referenceHistEq(img);
    int lo = 255, hi = 0;
    for (std::uint8_t p : eq.pixels()) {
        lo = std::min<int>(lo, p);
        hi = std::max<int>(hi, p);
    }
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 255);
}

TEST(Image, HistEqOfConstantImageIsStable)
{
    GrayImage img(8, 8);
    for (auto& p : img.pixels())
        p = 77;
    GrayImage eq = referenceHistEq(img);
    // All mass in one bin: the degenerate transform keeps the value.
    for (std::uint8_t p : eq.pixels())
        EXPECT_EQ(p, 77);
}

TEST(Image, DownsampleHalvesAndAverages)
{
    GrayImage img(4, 2);
    int vals[2][4] = {{10, 20, 30, 40}, {50, 60, 70, 80}};
    for (int y = 0; y < 2; ++y)
        for (int x = 0; x < 4; ++x)
            img.at(x, y) = static_cast<std::uint8_t>(vals[y][x]);
    GrayImage half = referenceDownsample(img);
    EXPECT_EQ(half.width(), 2);
    EXPECT_EQ(half.height(), 1);
    EXPECT_EQ(half.at(0, 0), (10 + 20 + 50 + 60) / 4);
    EXPECT_EQ(half.at(1, 0), (30 + 40 + 70 + 80) / 4);
}

TEST(Image, ChecksumDependsOnDims)
{
    GrayImage a(4, 2), b(2, 4);
    EXPECT_NE(a.checksum(), b.checksum());
}

// ------------------------------------------------------------------
// Row kernels and the equalization table against the per-pixel forms
// they replaced, byte for byte. The sizes include the degenerate
// 1-pixel and 2-pixel images where a row kernel could overrun.

namespace {

const std::pair<int, int> kSizes[] = {
    {1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 3}, {5, 4}, {33, 17}, {64, 48}};

GrayImage
randomGray(int w, int h, std::uint64_t seed, std::uint32_t levels = 256)
{
    GrayImage img(w, h);
    Rng rng(seed);
    for (std::uint8_t& p : img.pixels())
        p = static_cast<std::uint8_t>(rng.nextBelow(levels));
    return img;
}

RgbImage
randomRgb(int w, int h, std::uint64_t seed)
{
    RgbImage img(w, h);
    Rng rng(seed);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            for (int c = 0; c < 3; ++c)
                img.at(x, y, c) =
                    static_cast<std::uint8_t>(rng.nextBelow(256));
    return img;
}

std::uint8_t
lumaPixel(const RgbImage& src, int x, int y)
{
    int v = (299 * src.at(x, y, 0) + 587 * src.at(x, y, 1)
             + 114 * src.at(x, y, 2)) / 1000;
    return static_cast<std::uint8_t>(v);
}

std::uint8_t
boxPixel(const GrayImage& src, int x, int y)
{
    int sum = src.at(2 * x, 2 * y) + src.at(2 * x + 1, 2 * y)
        + src.at(2 * x, 2 * y + 1) + src.at(2 * x + 1, 2 * y + 1);
    return static_cast<std::uint8_t>(sum / 4);
}

/** Histogram equalization with one 64-bit division per pixel. */
GrayImage
histEqPerPixel(const GrayImage& src)
{
    std::vector<std::uint64_t> hist(256, 0);
    for (std::uint8_t p : src.pixels())
        ++hist[p];
    std::vector<std::uint64_t> cdf(256, 0);
    std::uint64_t run = 0;
    std::uint64_t cdf_min = 0;
    for (int i = 0; i < 256; ++i) {
        run += hist[i];
        cdf[i] = run;
        if (cdf_min == 0 && run > 0)
            cdf_min = run;
    }
    std::uint64_t total = src.pixels().size();
    GrayImage out(src.width(), src.height());
    for (std::size_t i = 0; i < src.pixels().size(); ++i) {
        std::uint64_t c = cdf[src.pixels()[i]];
        std::uint64_t denom = total - cdf_min;
        out.pixels()[i] = denom == 0
            ? src.pixels()[i]
            : static_cast<std::uint8_t>((c - cdf_min) * 255 / denom);
    }
    return out;
}

/** The procedural test image with sin() and cos() at every pixel. */
RgbImage
testImagePerPixel(int w, int h, std::uint64_t seed,
                  const std::vector<std::pair<int, int>>& faces)
{
    RgbImage img(w, h);
    Rng rng(seed);
    double px = rng.nextRange(0.0, 6.28);
    double py = rng.nextRange(0.0, 6.28);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            double gx = 0.5 + 0.5 * std::sin(px + x * 0.013);
            double gy = 0.5 + 0.5 * std::cos(py + y * 0.017);
            int noise = static_cast<int>(rng.nextBelow(32));
            img.at(x, y, 0) = static_cast<std::uint8_t>(
                std::min(255.0, gx * 180 + noise));
            img.at(x, y, 1) = static_cast<std::uint8_t>(
                std::min(255.0, gy * 160 + noise));
            img.at(x, y, 2) = static_cast<std::uint8_t>(
                std::min(255.0, (gx + gy) * 90 + noise));
        }
    }
    for (const auto& [cx, cy] : faces) {
        for (int dy = -12; dy < 12; ++dy) {
            for (int dx = -12; dx < 12; ++dx) {
                int x = cx + dx, y = cy + dy;
                if (x < 0 || y < 0 || x >= w || y >= h)
                    continue;
                bool frame = std::abs(dx) > 8 || std::abs(dy) > 8;
                std::uint8_t v = frame ? 240 : 60;
                img.at(x, y, 0) = v;
                img.at(x, y, 1) = v;
                img.at(x, y, 2) = v;
            }
        }
    }
    return img;
}

bool
sameImage(const RgbImage& a, const RgbImage& b)
{
    if (a.width() != b.width() || a.height() != b.height())
        return false;
    for (int y = 0; y < a.height(); ++y) {
        if (!std::equal(a.row(y), a.row(y) + a.width() * 3, b.row(y)))
            return false;
    }
    return true;
}

} // namespace

TEST(ImageKernels, TestImageMatchesPerPixelTrig)
{
    // The degenerate sizes, with markers on and across the borders.
    for (auto [w, h] : kSizes) {
        std::vector<std::pair<int, int>> faces = {
            {0, 0}, {w - 1, h / 2}, {w / 2, h + 3}};
        for (std::uint64_t seed : {1u, 99u}) {
            EXPECT_TRUE(sameImage(makeTestImage(w, h, seed),
                                  testImagePerPixel(w, h, seed, {})))
                << w << "x" << h << " seed " << seed;
            EXPECT_TRUE(sameImage(makeTestImage(w, h, seed, faces),
                                  testImagePerPixel(w, h, seed, faces)))
                << w << "x" << h << " seed " << seed << " with markers";
        }
    }
    // The first full-scale input of pyramid and of facedetect at
    // workload seeds 0 and 7 (perfbench moves each app's default
    // seed by n * 0x9E3779B97F4A7C15).
    for (std::uint64_t base : {20170101ULL, 20170202ULL}) {
        for (std::uint64_t n : {0u, 7u}) {
            std::uint64_t seed = base + n * 0x9E3779B97F4A7C15ULL;
            std::vector<std::pair<int, int>> faces = {{300, 200},
                                                      {1000, 500}};
            EXPECT_TRUE(sameImage(makeTestImage(1280, 720, seed, faces),
                                  testImagePerPixel(1280, 720, seed,
                                                    faces)))
                << "seed " << seed;
        }
    }
}

TEST(ImageKernels, GrayscaleRowsMatchPerPixelLuma)
{
    std::uint64_t seed = 1;
    for (auto [w, h] : kSizes) {
        RgbImage src = randomRgb(w, h, seed++);
        // A band in the middle: rows outside it stay untouched.
        int y0 = h / 3, y1 = h - h / 4;
        GrayImage dst(w, h);
        for (std::uint8_t& p : dst.pixels())
            p = 0xA5;
        grayscaleRows(src, dst, y0, y1);
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                EXPECT_EQ(dst.at(x, y),
                          y >= y0 && y < y1 ? lumaPixel(src, x, y)
                                            : 0xA5)
                    << w << "x" << h << " at " << x << "," << y;
            }
        }
        GrayImage whole = referenceGrayscale(src);
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                EXPECT_EQ(whole.at(x, y), lumaPixel(src, x, y));
    }
}

TEST(ImageKernels, DownsampleRowsMatchPerPixelBoxFilter)
{
    std::uint64_t seed = 100;
    for (auto [w, h] : kSizes) {
        GrayImage src = randomGray(w, h, seed++);
        GrayImage half = referenceDownsample(src);
        ASSERT_EQ(half.width(), w / 2);
        ASSERT_EQ(half.height(), h / 2);
        for (int y = 0; y < h / 2; ++y)
            for (int x = 0; x < w / 2; ++x)
                EXPECT_EQ(half.at(x, y), boxPixel(src, x, y))
                    << w << "x" << h << " at " << x << "," << y;
        // One band at a time, as the resize stages call it.
        GrayImage banded(w / 2, h / 2);
        for (int y0 = 0; y0 < h / 2; y0 += 3)
            downsampleRows(src, banded, y0, std::min(h / 2, y0 + 3));
        EXPECT_EQ(banded.pixels(), half.pixels()) << w << "x" << h;
    }
}

TEST(ImageKernels, HistEqTableMatchesPerPixelDivision)
{
    std::uint64_t seed = 200;
    for (auto [w, h] : kSizes) {
        // Full range, a narrow band (many empty levels) and two
        // levels (large ties).
        for (std::uint32_t levels : {256u, 9u, 2u}) {
            GrayImage src = randomGray(w, h, seed++, levels);
            EXPECT_EQ(referenceHistEq(src).pixels(),
                      histEqPerPixel(src).pixels())
                << w << "x" << h << " levels " << levels;
        }
    }
    // Constant images: the denominator is 0 and pixels keep their
    // value, at both ends of the range.
    for (int v : {0, 77, 255}) {
        GrayImage flat(7, 5);
        for (std::uint8_t& p : flat.pixels())
            p = static_cast<std::uint8_t>(v);
        EXPECT_EQ(referenceHistEq(flat).pixels(),
                  histEqPerPixel(flat).pixels());
        EXPECT_EQ(referenceHistEq(flat).pixels(), flat.pixels());
    }
    GrayImage empty;
    EXPECT_TRUE(referenceHistEq(empty).pixels().empty());
}
