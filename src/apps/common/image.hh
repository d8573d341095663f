/**
 * @file
 * Minimal image container and procedural test-image generation used
 * by the image-processing applications (Pyramid, Face Detection,
 * Rasterization output).
 */

#ifndef VP_APPS_COMMON_IMAGE_HH
#define VP_APPS_COMMON_IMAGE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace vp {

/** A single-channel 8-bit image. */
class GrayImage
{
  public:
    GrayImage() = default;

    GrayImage(int w, int h)
        : width_(w), height_(h),
          pixels_(static_cast<std::size_t>(w) * h, 0)
    {}

    int width() const { return width_; }
    int height() const { return height_; }

    std::uint8_t&
    at(int x, int y)
    {
        return pixels_[static_cast<std::size_t>(y) * width_ + x];
    }

    std::uint8_t
    at(int x, int y) const
    {
        return pixels_[static_cast<std::size_t>(y) * width_ + x];
    }

    /** First pixel of row y; the row's width() pixels follow it. */
    std::uint8_t*
    row(int y)
    {
        return pixels_.data() + static_cast<std::size_t>(y) * width_;
    }

    const std::uint8_t*
    row(int y) const
    {
        return pixels_.data() + static_cast<std::size_t>(y) * width_;
    }

    const std::vector<std::uint8_t>& pixels() const { return pixels_; }
    std::vector<std::uint8_t>& pixels() { return pixels_; }

    /** FNV-1a checksum of the pixel data (for verification). */
    std::uint64_t checksum() const;

  private:
    int width_ = 0;
    int height_ = 0;
    std::vector<std::uint8_t> pixels_;
};

/** An interleaved RGB 8-bit image. */
class RgbImage
{
  public:
    RgbImage() = default;

    RgbImage(int w, int h)
        : width_(w), height_(h),
          pixels_(static_cast<std::size_t>(w) * h * 3, 0)
    {}

    int width() const { return width_; }
    int height() const { return height_; }

    std::uint8_t&
    at(int x, int y, int c)
    {
        return pixels_[(static_cast<std::size_t>(y) * width_ + x) * 3
                       + c];
    }

    std::uint8_t
    at(int x, int y, int c) const
    {
        return pixels_[(static_cast<std::size_t>(y) * width_ + x) * 3
                       + c];
    }

    /** First byte of row y: width() interleaved R, G, B triples. */
    std::uint8_t*
    row(int y)
    {
        return pixels_.data() + static_cast<std::size_t>(y) * width_ * 3;
    }

    const std::uint8_t*
    row(int y) const
    {
        return pixels_.data() + static_cast<std::size_t>(y) * width_ * 3;
    }

    double
    bytes() const
    {
        return static_cast<double>(pixels_.size());
    }

    /** Write a binary PPM (P6) file; returns false on I/O error. */
    bool writePpm(const std::string& path) const;

  private:
    int width_ = 0;
    int height_ = 0;
    std::vector<std::uint8_t> pixels_;
};

/**
 * Deterministic procedural RGB test image: low-frequency gradients
 * plus texture noise, with optional bright square "face" markers at
 * the given centers (used by Face Detection's ground truth). The
 * gradients are separable, so sin() runs once per column and cos()
 * once per row; the noise draws one value per pixel, row by row.
 */
RgbImage makeTestImage(int w, int h, std::uint64_t seed,
                       const std::vector<std::pair<int, int>>& faces
                       = {});

/**
 * Row kernel: RGB-to-luma (BT.601 integer approximation) of rows
 * [y0, y1) of src into the same rows of dst, which has src's size.
 */
void grayscaleRows(const RgbImage& src, GrayImage& dst, int y0, int y1);

/**
 * Row kernel: 2x2 box filter into rows [y0, y1) of dst, each output
 * pixel the floored mean of src's pixels (2x..2x+1, 2y..2y+1). dst
 * is at most half of src in each dimension.
 */
void downsampleRows(const GrayImage& src, GrayImage& dst, int y0,
                    int y1);

/** Reference RGB-to-luma conversion (BT.601 integer approximation). */
GrayImage referenceGrayscale(const RgbImage& src);

/**
 * Reference histogram equalization over a gray image: each pixel maps
 * to (cdf(v) - cdf_min) * 255 / (pixels - cdf_min), or keeps its value
 * when every pixel has the same value.
 */
GrayImage referenceHistEq(const GrayImage& src);

/** Reference 2x box-filter downsample (floor dimensions). */
GrayImage referenceDownsample(const GrayImage& src);

/** (image, pyramid level): the key of a join over one level. */
struct ImageLevel
{
    std::int32_t image, level;
};

} // namespace vp

#endif // VP_APPS_COMMON_IMAGE_HH
