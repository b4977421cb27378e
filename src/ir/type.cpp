#include "ir/type.hpp"

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace lifta::ir {

std::string cTypeName(ScalarKind k, const std::string& realName) {
  switch (k) {
    case ScalarKind::Float:
    case ScalarKind::Double:
      return realName;
    case ScalarKind::Int:
      return "int";
    case ScalarKind::Bool:
      return "int";  // C has no bool in our dialect; int is conventional.
  }
  return "void";
}

TypePtr Type::scalar(ScalarKind k) {
  auto t = std::shared_ptr<Type>(new Type());
  t->kind_ = TypeKind::Scalar;
  t->scalar_ = k;
  return t;
}

TypePtr Type::array(TypePtr elem, arith::Expr size) {
  LIFTA_CHECK(elem != nullptr, "array element type is null");
  auto t = std::shared_ptr<Type>(new Type());
  t->kind_ = TypeKind::Array;
  t->elem_ = std::move(elem);
  t->size_ = std::move(size);
  return t;
}

TypePtr Type::tuple(std::vector<TypePtr> elems) {
  auto t = std::shared_ptr<Type>(new Type());
  t->kind_ = TypeKind::Tuple;
  t->elems_ = std::move(elems);
  return t;
}

TypePtr Type::float_() {
  static const TypePtr t = scalar(ScalarKind::Float);
  return t;
}
TypePtr Type::double_() {
  static const TypePtr t = scalar(ScalarKind::Double);
  return t;
}
TypePtr Type::int_() {
  static const TypePtr t = scalar(ScalarKind::Int);
  return t;
}
TypePtr Type::bool_() {
  static const TypePtr t = scalar(ScalarKind::Bool);
  return t;
}

ScalarKind Type::scalarKind() const {
  LIFTA_CHECK(isScalar(), "scalarKind on non-scalar type");
  return scalar_;
}

const TypePtr& Type::elem() const {
  LIFTA_CHECK(isArray(), "elem on non-array type");
  return elem_;
}

const arith::Expr& Type::size() const {
  LIFTA_CHECK(isArray(), "size on non-array type");
  return size_;
}

const std::vector<TypePtr>& Type::elems() const {
  LIFTA_CHECK(isTuple(), "elems on non-tuple type");
  return elems_;
}

bool Type::equals(const TypePtr& other) const {
  if (other == nullptr) return false;
  if (kind_ != other->kind_) return false;
  switch (kind_) {
    case TypeKind::Scalar:
      return scalar_ == other->scalar_;
    case TypeKind::Array:
      return size_ == other->size_ && elem_->equals(other->elem_);
    case TypeKind::Tuple: {
      if (elems_.size() != other->elems_.size()) return false;
      for (std::size_t i = 0; i < elems_.size(); ++i) {
        if (!elems_[i]->equals(other->elems_[i])) return false;
      }
      return true;
    }
  }
  return false;
}

bool typeEquals(const TypePtr& a, const TypePtr& b) {
  return a != nullptr && a->equals(b);
}

std::string Type::toString() const {
  switch (kind_) {
    case TypeKind::Scalar:
      switch (scalar_) {
        case ScalarKind::Float:
          return "Float";
        case ScalarKind::Double:
          return "Double";
        case ScalarKind::Int:
          return "Int";
        case ScalarKind::Bool:
          return "Bool";
      }
      return "?";
    case TypeKind::Array:
      return enclose("[", elem_->toString(), "]_") + size_.toString();
    case TypeKind::Tuple: {
      std::vector<std::string> parts;
      parts.reserve(elems_.size());
      for (const auto& e : elems_) parts.push_back(e->toString());
      return enclose("(", join(parts, ", "), ")");
    }
  }
  return "?";
}

arith::Expr Type::flatCount() const {
  switch (kind_) {
    case TypeKind::Scalar:
      return arith::Expr(1);
    case TypeKind::Array:
      return size_ * elem_->flatCount();
    case TypeKind::Tuple:
      LIFTA_CHECK(false, "flatCount on tuple type");
  }
  return arith::Expr(0);
}

TypePtr Type::scalarElem() const {
  if (isArray()) return elem_->scalarElem();
  LIFTA_CHECK(isScalar(), "scalarElem on tuple type");
  // Return the canonical singleton for this scalar kind.
  switch (scalar_) {
    case ScalarKind::Float:
      return float_();
    case ScalarKind::Double:
      return double_();
    case ScalarKind::Int:
      return int_();
    case ScalarKind::Bool:
      return bool_();
  }
  return float_();
}

}  // namespace lifta::ir
