#include "ml/lstm.h"

#include <algorithm>
#include <cmath>

namespace lion {

namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

void ApplySigmoid(Vec* v) {
  for (double& x : *v) x = Sigmoid(x);
}
void ApplyTanh(Vec* v) {
  for (double& x : *v) x = std::tanh(x);
}

// Stacked layers (the paper's 2-layer encoder).
constexpr int kLayers = 2;
// Adam's learning rate, moment decay rates and epsilon, and the gradient
// clip norm.
constexpr double kLearningRate = 0.02;
constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEps = 1e-8;
constexpr double kGradClip = 5.0;

}  // namespace

/// Per-step forward activations cached for BPTT.
struct LstmNetwork::StepCache {
  // Per layer: input x, previous h/c, gates, new c, tanh(c).
  std::vector<Vec> x, h_prev, c_prev, gate_i, gate_f, gate_o, gate_g, c, tanh_c, h;
};

LstmNetwork::LstmNetwork(const LstmConfig& config, uint64_t seed)
    : config_(config) {
  Rng rng(seed);
  int h = config_.hidden;
  layers_.resize(kLayers);
  for (int l = 0; l < kLayers; ++l) {
    int in_dim = (l == 0) ? 1 : h;
    double scale = 1.0 / std::sqrt(static_cast<double>(in_dim + h));
    LstmLayer& layer = layers_[l];
    for (int g = 0; g < 4; ++g) {
      layer.W[g] = Matrix(h, in_dim);
      layer.U[g] = Matrix(h, h);
      layer.W[g].RandomInit(&rng, scale);
      layer.U[g].RandomInit(&rng, scale);
      layer.b[g].assign(h, 0.0);
      layer.dW[g] = Matrix(h, in_dim);
      layer.dU[g] = Matrix(h, h);
      layer.db[g].assign(h, 0.0);
      layer.mW[g] = Matrix(h, in_dim);
      layer.vW[g] = Matrix(h, in_dim);
      layer.mU[g] = Matrix(h, h);
      layer.vU[g] = Matrix(h, h);
      layer.mb[g].assign(h, 0.0);
      layer.vb[g].assign(h, 0.0);
    }
    // Forget-gate bias starts positive: standard trick for gradient flow.
    std::fill(layer.b[1].begin(), layer.b[1].end(), 1.0);
  }
  Wy_ = Matrix(1, h);
  Wy_.RandomInit(&rng, 1.0 / std::sqrt(static_cast<double>(h)));
  by_.assign(1, 0.0);
  dWy_ = Matrix(1, h);
  mWy_ = Matrix(1, h);
  vWy_ = Matrix(1, h);
  dby_.assign(1, 0.0);
  mby_.assign(1, 0.0);
  vby_.assign(1, 0.0);
}

double LstmNetwork::StepForward(double x, std::vector<Vec>* h,
                                std::vector<Vec>* c, StepCache* cache) const {
  int hid = config_.hidden;
  Vec input(1, x);
  for (int l = 0; l < kLayers; ++l) {
    const LstmLayer& layer = layers_[l];
    Vec gates[4];
    for (int g = 0; g < 4; ++g) {
      gates[g] = layer.b[g];
      layer.W[g].MatVecAccum(input, &gates[g]);
      layer.U[g].MatVecAccum((*h)[l], &gates[g]);
    }
    ApplySigmoid(&gates[0]);
    ApplySigmoid(&gates[1]);
    ApplySigmoid(&gates[2]);
    ApplyTanh(&gates[3]);

    Vec new_c(hid);
    for (int k = 0; k < hid; ++k) {
      new_c[k] = gates[1][k] * (*c)[l][k] + gates[0][k] * gates[3][k];
    }
    Vec tanh_c = new_c;
    ApplyTanh(&tanh_c);
    Vec new_h(hid);
    for (int k = 0; k < hid; ++k) new_h[k] = gates[2][k] * tanh_c[k];

    if (cache != nullptr) {
      cache->x.push_back(input);
      cache->h_prev.push_back((*h)[l]);
      cache->c_prev.push_back((*c)[l]);
      cache->gate_i.push_back(gates[0]);
      cache->gate_f.push_back(gates[1]);
      cache->gate_o.push_back(gates[2]);
      cache->gate_g.push_back(gates[3]);
      cache->c.push_back(new_c);
      cache->tanh_c.push_back(tanh_c);
      cache->h.push_back(new_h);
    }
    (*h)[l] = new_h;
    (*c)[l] = new_c;
    input = (*h)[l];
  }
  double y = by_[0];
  Vec out(1, 0.0);
  Wy_.MatVecAccum(input, &out);
  y += out[0];
  return y;
}

double LstmNetwork::PredictNext(const std::vector<double>& series) const {
  std::vector<Vec> h(kLayers, Vec(config_.hidden, 0.0));
  std::vector<Vec> c(kLayers, Vec(config_.hidden, 0.0));
  double y = 0.0;
  for (double x : series) y = StepForward(x, &h, &c, nullptr);
  return y;
}

std::vector<double> LstmNetwork::Forecast(const std::vector<double>& series,
                                          int horizon) const {
  std::vector<Vec> h(kLayers, Vec(config_.hidden, 0.0));
  std::vector<Vec> c(kLayers, Vec(config_.hidden, 0.0));
  double y = 0.0;
  for (double x : series) y = StepForward(x, &h, &c, nullptr);
  std::vector<double> out;
  out.reserve(horizon);
  for (int i = 0; i < horizon; ++i) {
    out.push_back(y);
    if (i + 1 < horizon) y = StepForward(y, &h, &c, nullptr);
  }
  return out;
}

double LstmNetwork::Evaluate(const std::vector<double>& series) const {
  if (series.size() < 2) return 0.0;
  std::vector<Vec> h(kLayers, Vec(config_.hidden, 0.0));
  std::vector<Vec> c(kLayers, Vec(config_.hidden, 0.0));
  double se = 0.0;
  for (size_t t = 0; t + 1 < series.size(); ++t) {
    double y = StepForward(series[t], &h, &c, nullptr);
    double err = y - series[t + 1];
    se += err * err;
  }
  return se / static_cast<double>(series.size() - 1);
}

void LstmNetwork::ZeroGradients() {
  for (auto& layer : layers_) {
    for (int g = 0; g < 4; ++g) {
      layer.dW[g].Zero();
      layer.dU[g].Zero();
      vecops::Zero(&layer.db[g]);
    }
  }
  dWy_.Zero();
  vecops::Zero(&dby_);
}

double LstmNetwork::ForwardBackward(const std::vector<double>& series) {
  if (series.size() < 2) return 0.0;
  ZeroGradients();
  const int steps = static_cast<int>(series.size()) - 1;
  const int hid = config_.hidden;
  const int L = kLayers;

  // Forward, caching activations and the per-step output-layer input.
  std::vector<StepCache> caches(steps);
  std::vector<Vec> h(L, Vec(hid, 0.0)), c(L, Vec(hid, 0.0));
  std::vector<double> outputs(steps);
  for (int t = 0; t < steps; ++t) {
    outputs[t] = StepForward(series[t], &h, &c, &caches[t]);
  }

  double se = 0.0;
  // Backward through time.
  std::vector<Vec> dh(L, Vec(hid, 0.0)), dc(L, Vec(hid, 0.0));
  for (int t = steps - 1; t >= 0; --t) {
    double err = outputs[t] - series[t + 1];
    se += err * err;
    double dy = 2.0 * err / static_cast<double>(steps);

    // Output head gradient; contributes to top layer's dh.
    const Vec& top_h = caches[t].h[L - 1];
    for (int k = 0; k < hid; ++k) dWy_.at(0, k) += dy * top_h[k];
    dby_[0] += dy;
    Vec dtop(hid, 0.0);
    Wy_.MatTVecAccum(Vec(1, dy), &dtop);
    vecops::Add(dtop, &dh[L - 1]);

    // Backprop through the stacked layers at this step.
    for (int l = L - 1; l >= 0; --l) {
      LstmLayer& layer = layers_[l];
      const Vec& gi = caches[t].gate_i[l];
      const Vec& gf = caches[t].gate_f[l];
      const Vec& go = caches[t].gate_o[l];
      const Vec& gg = caches[t].gate_g[l];
      const Vec& tc = caches[t].tanh_c[l];
      const Vec& cp = caches[t].c_prev[l];

      Vec dzi(hid), dzf(hid), dzo(hid), dzg(hid), dcl(hid);
      for (int k = 0; k < hid; ++k) {
        double dhk = dh[l][k];
        double dck = dhk * go[k] * (1.0 - tc[k] * tc[k]) + dc[l][k];
        dcl[k] = dck;
        dzo[k] = dhk * tc[k] * go[k] * (1.0 - go[k]);
        dzi[k] = dck * gg[k] * gi[k] * (1.0 - gi[k]);
        dzf[k] = dck * cp[k] * gf[k] * (1.0 - gf[k]);
        dzg[k] = dck * gi[k] * (1.0 - gg[k] * gg[k]);
      }

      const Vec& x = caches[t].x[l];
      const Vec& hp = caches[t].h_prev[l];
      Vec dx(x.size(), 0.0);
      Vec dhp(hid, 0.0);
      const Vec* dz[4] = {&dzi, &dzf, &dzo, &dzg};
      for (int g = 0; g < 4; ++g) {
        layer.dW[g].OuterAccum(*dz[g], x);
        layer.dU[g].OuterAccum(*dz[g], hp);
        vecops::Add(*dz[g], &layer.db[g]);
        layer.W[g].MatTVecAccum(*dz[g], &dx);
        layer.U[g].MatTVecAccum(*dz[g], &dhp);
      }

      // Carry recurrent gradients to step t-1 of this layer...
      dh[l] = dhp;
      for (int k = 0; k < hid; ++k) dc[l][k] = dcl[k] * gf[k];
      // ...and the input gradient down to layer l-1's h at step t.
      if (l > 0) vecops::Add(dx, &dh[l - 1]);
    }
  }
  return se / static_cast<double>(steps);
}

void LstmNetwork::ClipGradients() {
  const double clip = kGradClip;
  auto clip_vec = [clip](Vec* v) {
    for (double& x : *v) x = std::clamp(x, -clip, clip);
  };
  for (auto& layer : layers_) {
    for (int g = 0; g < 4; ++g) {
      clip_vec(&layer.dW[g].data());
      clip_vec(&layer.dU[g].data());
      clip_vec(&layer.db[g]);
    }
  }
  clip_vec(&dWy_.data());
  clip_vec(&dby_);
}

void LstmNetwork::AdamUpdate() {
  adam_t_++;
  const double b1 = kAdamBeta1, b2 = kAdamBeta2;
  double bias1 = 1.0 - std::pow(b1, adam_t_);
  double bias2 = 1.0 - std::pow(b2, adam_t_);
  const double lr = kLearningRate;
  const double eps = kAdamEps;

  auto update = [&](Vec* param, Vec* grad, Vec* m, Vec* v) {
    for (size_t i = 0; i < param->size(); ++i) {
      (*m)[i] = b1 * (*m)[i] + (1 - b1) * (*grad)[i];
      (*v)[i] = b2 * (*v)[i] + (1 - b2) * (*grad)[i] * (*grad)[i];
      double mh = (*m)[i] / bias1;
      double vh = (*v)[i] / bias2;
      (*param)[i] -= lr * mh / (std::sqrt(vh) + eps);
    }
  };

  for (auto& layer : layers_) {
    for (int g = 0; g < 4; ++g) {
      update(&layer.W[g].data(), &layer.dW[g].data(), &layer.mW[g].data(),
             &layer.vW[g].data());
      update(&layer.U[g].data(), &layer.dU[g].data(), &layer.mU[g].data(),
             &layer.vU[g].data());
      update(&layer.b[g], &layer.db[g], &layer.mb[g], &layer.vb[g]);
    }
  }
  update(&Wy_.data(), &dWy_.data(), &mWy_.data(), &vWy_.data());
  update(&by_, &dby_, &mby_, &vby_);
}

double LstmNetwork::TrainSequence(const std::vector<double>& series) {
  double mse = ForwardBackward(series);
  ClipGradients();
  AdamUpdate();
  return mse;
}

double LstmNetwork::Train(const std::vector<double>& series, int epochs) {
  double mse = 0.0;
  for (int e = 0; e < epochs; ++e) mse = TrainSequence(series);
  return mse;
}

std::vector<double*> LstmNetwork::ParameterPointers() {
  std::vector<double*> out;
  for (auto& layer : layers_) {
    for (int g = 0; g < 4; ++g) {
      for (double& v : layer.W[g].data()) out.push_back(&v);
      for (double& v : layer.U[g].data()) out.push_back(&v);
      for (double& v : layer.b[g]) out.push_back(&v);
    }
  }
  for (double& v : Wy_.data()) out.push_back(&v);
  for (double& v : by_) out.push_back(&v);
  return out;
}

std::vector<double*> LstmNetwork::GradientPointers() {
  std::vector<double*> out;
  for (auto& layer : layers_) {
    for (int g = 0; g < 4; ++g) {
      for (double& v : layer.dW[g].data()) out.push_back(&v);
      for (double& v : layer.dU[g].data()) out.push_back(&v);
      for (double& v : layer.db[g]) out.push_back(&v);
    }
  }
  for (double& v : dWy_.data()) out.push_back(&v);
  for (double& v : dby_) out.push_back(&v);
  return out;
}

}  // namespace lion
