#include "index/key.h"

#include <cstring>

namespace exi {

int TotalOrderCompare(const Value& a, const Value& b) {
  // Fast path for the tags index keys are made of; same order as
  // Value::Compare.
  if (a.tag() == b.tag()) {
    if (a.tag() == TypeTag::kInteger) {
      return (a.AsInteger() > b.AsInteger()) - (a.AsInteger() < b.AsInteger());
    }
    if (a.tag() == TypeTag::kVarchar) {
      int c = a.AsVarchar().compare(b.AsVarchar());
      return (c > 0) - (c < 0);
    }
  }
  Result<int> cmp = Value::Compare(a, b);
  if (cmp.ok()) return *cmp;
  // Incomparable tags: order by tag id, then by printed form.
  if (a.tag() != b.tag()) {
    return int(a.tag()) < int(b.tag()) ? -1 : 1;
  }
  std::string sa = a.ToString();
  std::string sb = b.ToString();
  return sa < sb ? -1 : (sa > sb ? 1 : 0);
}

int CompareKeys(const CompositeKey& a, const CompositeKey& b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    int c = TotalOrderCompare(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

KeyImage MakeKeyImage(const Value* values, size_t n) {
  KeyImage image;
  // Appends `b`, or marks the image inexact once it is full.
  auto put = [&image](uint8_t b) {
    if (image.size == KeyImage::kCapacity) {
      image.exact = false;
      return false;
    }
    image.bytes[image.size++] = b;
    return true;
  };
  for (size_t i = 0; i < n && image.exact; ++i) {
    const Value& v = values[i];
    // Mixed-type keys order by tag first (TotalOrderCompare), so the tag
    // leads each value.  Numbers of different tags compare by value, so
    // only INTEGER is imaged among them.
    if (v.tag() != TypeTag::kNull && v.tag() != TypeTag::kInteger &&
        v.tag() != TypeTag::kVarchar) {
      image.exact = false;
      break;
    }
    if (!put(uint8_t(v.tag()))) break;
    if (v.tag() == TypeTag::kInteger) {
      // Big-endian with the sign bit flipped: bytewise order = numeric.
      uint64_t u = uint64_t(v.AsInteger()) ^ (uint64_t(1) << 63);
      for (int shift = 56; shift >= 0 && image.exact; shift -= 8) {
        put(uint8_t(u >> shift));
      }
    } else if (v.tag() == TypeTag::kVarchar) {
      // NUL escapes to 00 FF and 00 00 ends the string, so a prefix sorts
      // before its extensions.
      for (unsigned char c : v.AsVarchar()) {
        if (!put(c) || (c == 0 && !put(0xFF))) break;
      }
      if (image.exact) put(0);
      if (image.exact) put(0);
    }
  }
  return image;
}

int CompareImagedKeys(const KeyImage& image_a, const Value* a,
                      const KeyImage& image_b, const Value* b, size_t n) {
  size_t common = image_a.size < image_b.size ? image_a.size : image_b.size;
  int c = std::memcmp(image_a.bytes, image_b.bytes, common);
  if (c != 0) return c < 0 ? -1 : 1;
  if (image_a.exact && image_b.exact) {
    return (image_a.size > image_b.size) - (image_a.size < image_b.size);
  }
  for (size_t i = 0; i < n; ++i) {
    c = TotalOrderCompare(a[i], b[i]);
    if (c != 0) return c;
  }
  return 0;
}

std::string KeyToString(const CompositeKey& key) {
  std::string out = "[";
  for (size_t i = 0; i < key.size(); ++i) {
    if (i) out += ", ";
    out += key[i].ToString();
  }
  out += "]";
  return out;
}

}  // namespace exi
