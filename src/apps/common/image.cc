#include "apps/common/image.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

namespace vp {

std::uint64_t
GrayImage::checksum() const
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint8_t p : pixels_) {
        h ^= p;
        h *= 1099511628211ULL;
    }
    h ^= static_cast<std::uint64_t>(width_) << 32 | height_;
    return h;
}

bool
RgbImage::writePpm(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "P6\n%d %d\n255\n", width_, height_);
    std::fwrite(pixels_.data(), 1, pixels_.size(), f);
    std::fclose(f);
    return true;
}

RgbImage
makeTestImage(int w, int h, std::uint64_t seed,
              const std::vector<std::pair<int, int>>& faces)
{
    RgbImage img(w, h);
    Rng rng(seed);
    // Low-frequency phase offsets make every image distinct.
    double px = rng.nextRange(0.0, 6.28);
    double py = rng.nextRange(0.0, 6.28);
    std::vector<double> gxs(w);
    for (int x = 0; x < w; ++x)
        gxs[x] = 0.5 + 0.5 * std::sin(px + x * 0.013);
    for (int y = 0; y < h; ++y) {
        const double gy = 0.5 + 0.5 * std::cos(py + y * 0.017);
        std::uint8_t* out = img.row(y);
        for (int x = 0; x < w; ++x, out += 3) {
            const double gx = gxs[x];
            int noise = static_cast<int>(rng.nextBelow(32));
            out[0] = static_cast<std::uint8_t>(
                std::min(255.0, gx * 180 + noise));
            out[1] = static_cast<std::uint8_t>(
                std::min(255.0, gy * 160 + noise));
            out[2] = static_cast<std::uint8_t>(
                std::min(255.0, (gx + gy) * 90 + noise));
        }
    }
    // Face markers: bright 24x24 squares with a darker inner frame,
    // a pattern the synthetic LBP cascade is trained to accept.
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

// The row kernels read widths into locals: a byte store may alias
// any object, so the compiler would otherwise reload them per pixel.

void
grayscaleRows(const RgbImage& src, GrayImage& dst, int y0, int y1)
{
    const int w = src.width();
    for (int y = y0; y < y1; ++y) {
        const std::uint8_t* rgb = src.row(y);
        std::uint8_t* out = dst.row(y);
        for (int x = 0; x < w; ++x, rgb += 3) {
            out[x] = static_cast<std::uint8_t>(
                (299 * rgb[0] + 587 * rgb[1] + 114 * rgb[2]) / 1000);
        }
    }
}

void
downsampleRows(const GrayImage& src, GrayImage& dst, int y0, int y1)
{
    const int w = dst.width();
    for (int y = y0; y < y1; ++y) {
        const std::uint8_t* top = src.row(2 * y);
        const std::uint8_t* bottom = src.row(2 * y + 1);
        std::uint8_t* out = dst.row(y);
        for (int x = 0; x < w; ++x) {
            int sum = top[2 * x] + top[2 * x + 1] + bottom[2 * x]
                + bottom[2 * x + 1];
            out[x] = static_cast<std::uint8_t>(sum / 4);
        }
    }
}

GrayImage
referenceGrayscale(const RgbImage& src)
{
    GrayImage out(src.width(), src.height());
    grayscaleRows(src, out, 0, src.height());
    return out;
}

GrayImage
referenceHistEq(const GrayImage& src)
{
    const std::uint8_t* in = src.pixels().data();
    const std::size_t total = src.pixels().size();
    std::array<std::uint64_t, 256> hist{};
    for (std::size_t i = 0; i < total; ++i)
        ++hist[in[i]];
    // One division per gray level instead of one per pixel. Levels
    // below the darkest pixel have run == cdf_min == 0 and map to 0;
    // no pixel reads them.
    std::uint64_t run = 0;
    std::uint64_t cdf_min = 0;
    std::array<std::uint8_t, 256> remap;
    for (int v = 0; v < 256; ++v) {
        run += hist[v];
        if (cdf_min == 0 && run > 0)
            cdf_min = run;
        std::uint64_t denom = total - cdf_min;
        remap[v] = denom == 0
            ? static_cast<std::uint8_t>(v)
            : static_cast<std::uint8_t>((run - cdf_min) * 255 / denom);
    }
    GrayImage out(src.width(), src.height());
    std::uint8_t* dst = out.pixels().data();
    for (std::size_t i = 0; i < total; ++i)
        dst[i] = remap[in[i]];
    return out;
}

GrayImage
referenceDownsample(const GrayImage& src)
{
    GrayImage out(src.width() / 2, src.height() / 2);
    downsampleRows(src, out, 0, out.height());
    return out;
}

} // namespace vp
